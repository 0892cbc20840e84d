package bronze

import (
	"fmt"
	"sync"

	"repro/internal/descriptor"
)

// XML executable descriptors of the Bronze Standard codes, in the format
// of paper Fig. 8. crestLinesXML is the paper's published example; the
// others follow the same conventions (GFN access for images and
// transformations, plain parameters for options, URL-accessed sandboxes).
const (
	crestLinesXML = `<description>
<executable name="CrestLines.pl">
<access type="URL"><path value="http://colors.unice.fr"/></access>
<value value="CrestLines.pl"/>
<input name="floating_image" option="-im1"><access type="GFN"/></input>
<input name="reference_image" option="-im2"><access type="GFN"/></input>
<input name="scale" option="-s"/>
<output name="crest_reference" option="-c1"><access type="GFN"/></output>
<output name="crest_floating" option="-c2"><access type="GFN"/></output>
<sandbox name="convert8bits"><access type="URL"><path value="http://colors.unice.fr"/></access><value value="Convert8bits.pl"/></sandbox>
<sandbox name="copy"><access type="URL"><path value="http://colors.unice.fr"/></access><value value="copy"/></sandbox>
<sandbox name="cmatch"><access type="URL"><path value="http://colors.unice.fr"/></access><value value="cmatch"/></sandbox>
</executable>
</description>`

	crestMatchXML = `<description>
<executable name="CrestMatch">
<access type="URL"><path value="http://colors.unice.fr"/></access>
<value value="cmatch"/>
<input name="crest_reference" option="-c1"><access type="GFN"/></input>
<input name="crest_floating" option="-c2"><access type="GFN"/></input>
<input name="reference_image" option="-im2"><access type="GFN"/></input>
<input name="floating_image" option="-im1"><access type="GFN"/></input>
<output name="transfo" option="-o"><access type="GFN"/></output>
</executable>
</description>`

	baladinXML = `<description>
<executable name="Baladin">
<access type="URL"><path value="http://colors.unice.fr"/></access>
<value value="baladin"/>
<input name="reference_image" option="-ref"><access type="GFN"/></input>
<input name="floating_image" option="-flo"><access type="GFN"/></input>
<input name="init_transfo" option="-init"><access type="GFN"/></input>
<output name="transfo" option="-res"><access type="GFN"/></output>
</executable>
</description>`

	yasminaXML = `<description>
<executable name="Yasmina">
<access type="URL"><path value="http://colors.unice.fr"/></access>
<value value="yasmina"/>
<input name="reference_image" option="-ref"><access type="GFN"/></input>
<input name="floating_image" option="-flo"><access type="GFN"/></input>
<input name="init_transfo" option="-init"><access type="GFN"/></input>
<output name="transfo" option="-res"><access type="GFN"/></output>
</executable>
</description>`

	pfMatchICPXML = `<description>
<executable name="PFMatchICP">
<access type="URL"><path value="http://colors.unice.fr"/></access>
<value value="pfmatch"/>
<input name="reference_image" option="-ref"><access type="GFN"/></input>
<input name="floating_image" option="-flo"><access type="GFN"/></input>
<input name="init_transfo" option="-init"><access type="GFN"/></input>
<output name="pairings" option="-o"><access type="GFN"/></output>
</executable>
</description>`

	pfRegisterXML = `<description>
<executable name="PFRegister">
<access type="URL"><path value="http://colors.unice.fr"/></access>
<value value="pfregister"/>
<input name="pairings" option="-i"><access type="GFN"/></input>
<output name="transfo" option="-res"><access type="GFN"/></output>
</executable>
</description>`

	multiTransfoTestXML = `<description>
<executable name="MultiTransfoTest">
<access type="URL"><path value="http://colors.unice.fr"/></access>
<value value="mtt"/>
<input name="transfo_crestmatch" option="-t1"><access type="GFN"/></input>
<input name="transfo_baladin" option="-t2"><access type="GFN"/></input>
<input name="transfo_yasmina" option="-t3"><access type="GFN"/></input>
<input name="transfo_pfregister" option="-t4"><access type="GFN"/></input>
<input name="method" option="-m"/>
<output name="accuracy_translation" option="-ot"><access type="GFN"/></output>
<output name="accuracy_rotation" option="-or"><access type="GFN"/></output>
</executable>
</description>`
)

// parsedDescriptors parses the seven descriptor documents once per process,
// keyed by code name. Every Build shares the parsed descriptions, which is
// safe because nothing writes a Description after Parse.
var parsedDescriptors = sync.OnceValues(func() (map[string]*descriptor.Description, error) {
	docs := []struct{ name, xml string }{
		{"crestLines", crestLinesXML},
		{"crestMatch", crestMatchXML},
		{"Baladin", baladinXML},
		{"Yasmina", yasminaXML},
		{"PFMatchICP", pfMatchICPXML},
		{"PFRegister", pfRegisterXML},
		{"MultiTransfoTest", multiTransfoTestXML},
	}
	out := make(map[string]*descriptor.Description, len(docs))
	for _, doc := range docs {
		d, err := descriptor.Parse([]byte(doc.xml))
		if err != nil {
			return nil, fmt.Errorf("bronze: %s: %w", doc.name, err)
		}
		out[doc.name] = d
	}
	return out, nil
})
