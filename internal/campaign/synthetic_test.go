package campaign

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/descriptor"
)

// stageXML is the XML document stageDescriptor's literal stands for.
const stageXML = `<description>
<executable name=%q>
<access type="URL"><path value="http://example.org"/></access>
<value value="stage"/>
<input name="in" option="-i"><access type="GFN"/></input>
<output name="out" option="-o"><access type="GFN"/></output>
</executable>
</description>`

func TestStageDescriptorMatchesXML(t *testing.T) {
	for _, name := range []string{"t0.stage00", "tenant-0042.stage17"} {
		want, err := descriptor.Parse([]byte(fmt.Sprintf(stageXML, name)))
		if err != nil {
			t.Fatal(err)
		}
		got := stageDescriptor(name)
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Executable, want.Executable) {
			t.Errorf("stageDescriptor(%q).Executable = %+v, want %+v (parsed)", name, got.Executable, want.Executable)
		}
	}
}
