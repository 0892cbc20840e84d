package descriptor

import (
	"strings"
	"testing"
	"testing/quick"
)

// figure8 is the paper's example descriptor (Fig. 8) verbatim.
const figure8 = `<description>
<executable name="CrestLines.pl">
<access type="URL">
<path value="http://colors.unice.fr"/>
</access>
<value value="CrestLines.pl"/>
<input name="floating_image" option="-im1">
<access type="GFN"/>
</input>
<input name="reference_image" option="-im2">
<access type="GFN"/>
</input>
<input name="scale" option="-s"/>
<output name="crest_reference" option="-c1">
<access type="GFN"/>
</output>
<output name="crest_floating" option="-c2">
<access type="GFN"/>
</output>
<sandbox name="convert8bits">
<access type="URL">
<path value="http://colors.unice.fr"/>
</access>
<value value="Convert8bits.pl"/>
</sandbox>
<sandbox name="copy">
<access type="URL">
<path value="http://colors.unice.fr"/>
</access>
<value value="copy"/>
</sandbox>
<sandbox name="cmatch">
<access type="URL">
<path value="http://colors.unice.fr"/>
</access>
<value value="cmatch"/>
</sandbox>
</executable>
</description>`

func parseFigure8(t *testing.T) *Description {
	t.Helper()
	d, err := Parse([]byte(figure8))
	if err != nil {
		t.Fatalf("Parse(figure 8) failed: %v", err)
	}
	return d
}

func TestParseFigure8(t *testing.T) {
	d := parseFigure8(t)
	e := d.Executable
	if e.Name != "CrestLines.pl" {
		t.Errorf("executable name = %q", e.Name)
	}
	if e.Access == nil || e.Access.Type != URL || e.Access.Path == nil ||
		e.Access.Path.Value != "http://colors.unice.fr" {
		t.Errorf("executable access = %+v", e.Access)
	}
	if len(e.Inputs) != 3 {
		t.Fatalf("inputs = %d, want 3", len(e.Inputs))
	}
	if e.Inputs[0].Name != "floating_image" || e.Inputs[0].Option != "-im1" || !e.Inputs[0].IsFile() {
		t.Errorf("input 0 = %+v", e.Inputs[0])
	}
	if e.Inputs[2].Name != "scale" || e.Inputs[2].IsFile() {
		t.Errorf("scale should be a parameter: %+v", e.Inputs[2])
	}
	if len(e.Outputs) != 2 || e.Outputs[0].Option != "-c1" || e.Outputs[0].Access.Type != GFN {
		t.Errorf("outputs = %+v", e.Outputs)
	}
	if len(e.Sandboxes) != 3 || e.Sandboxes[0].Value.Value != "Convert8bits.pl" {
		t.Errorf("sandboxes = %+v", e.Sandboxes)
	}
}

func TestRoundTrip(t *testing.T) {
	d := parseFigure8(t)
	out, err := d.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Parse(out)
	if err != nil {
		t.Fatalf("re-parse of marshalled descriptor failed: %v\n%s", err, out)
	}
	if d2.Executable.Name != d.Executable.Name ||
		len(d2.Executable.Inputs) != len(d.Executable.Inputs) ||
		len(d2.Executable.Outputs) != len(d.Executable.Outputs) ||
		len(d2.Executable.Sandboxes) != len(d.Executable.Sandboxes) {
		t.Fatalf("round trip lost structure: %+v", d2.Executable)
	}
}

func TestCommandLineFigure8(t *testing.T) {
	d := parseFigure8(t)
	cmd, err := d.CommandLine(Bindings{
		Inputs: map[string]string{
			"floating_image":  "gfn://flo7",
			"reference_image": "gfn://ref7",
			"scale":           "1.5",
		},
		Outputs: map[string]string{
			"crest_reference": "gfn://cr7",
			"crest_floating":  "gfn://cf7",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "CrestLines.pl -im1 gfn://flo7 -im2 gfn://ref7 -s 1.5 -c1 gfn://cr7 -c2 gfn://cf7"
	if cmd != want {
		t.Errorf("command line:\n got %q\nwant %q", cmd, want)
	}
}

func TestCommandLineMissingInput(t *testing.T) {
	d := parseFigure8(t)
	_, err := d.CommandLine(Bindings{
		Inputs:  map[string]string{"floating_image": "f"},
		Outputs: map[string]string{"crest_reference": "a", "crest_floating": "b"},
	})
	if err == nil || !strings.Contains(err.Error(), "reference_image") {
		t.Fatalf("missing input not reported: %v", err)
	}
}

func TestCommandLineMissingOutput(t *testing.T) {
	d := parseFigure8(t)
	_, err := d.CommandLine(Bindings{
		Inputs: map[string]string{
			"floating_image": "f", "reference_image": "r", "scale": "1",
		},
		Outputs: map[string]string{"crest_reference": "a"},
	})
	if err == nil || !strings.Contains(err.Error(), "crest_floating") {
		t.Fatalf("missing output not reported: %v", err)
	}
}

func TestStageIns(t *testing.T) {
	d := parseFigure8(t)
	files, err := d.AppendStageIns(nil, map[string]string{
		"floating_image":  "gfn://flo",
		"reference_image": "gfn://ref",
		"scale":           "2.0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 || files[0] != "gfn://flo" || files[1] != "gfn://ref" {
		t.Fatalf("AppendStageIns = %v (parameters must not be staged)", files)
	}
}

// AppendStageIns reports the first unbound declared input, in declaration
// order, whether it is a file or a parameter: it is the job path's only
// binding check.
func TestStageInsUnbound(t *testing.T) {
	d := parseFigure8(t)
	for _, c := range []struct {
		inputs map[string]string
		want   string
	}{
		{map[string]string{}, `descriptor CrestLines.pl: input "floating_image" not bound`},
		{map[string]string{"scale": "1"}, `descriptor CrestLines.pl: input "floating_image" not bound`},
		{map[string]string{"floating_image": "f", "scale": "1"}, `descriptor CrestLines.pl: input "reference_image" not bound`},
		{map[string]string{"floating_image": "f", "reference_image": "r"}, `descriptor CrestLines.pl: input "scale" not bound`},
	} {
		if _, err := d.AppendStageIns(nil, c.inputs); err == nil || err.Error() != c.want {
			t.Errorf("AppendStageIns(%v) err = %v, want %s", c.inputs, err, c.want)
		}
	}
}

func TestInputLookup(t *testing.T) {
	d := parseFigure8(t)
	in, ok := d.Input("scale")
	if !ok || in.Option != "-s" {
		t.Fatalf("Input(scale) = %+v, %v", in, ok)
	}
	if _, ok := d.Input("nonexistent"); ok {
		t.Fatal("Input(nonexistent) found")
	}
}

func TestNameLists(t *testing.T) {
	d := parseFigure8(t)
	ins := d.InputNames()
	if len(ins) != 3 || ins[0] != "floating_image" || ins[2] != "scale" {
		t.Fatalf("InputNames = %v", ins)
	}
	outs := d.OutputNames()
	if len(outs) != 2 || outs[1] != "crest_floating" {
		t.Fatalf("OutputNames = %v", outs)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		xml  string
		want string
	}{
		{
			"no executable name",
			`<description><executable></executable></description>`,
			"no name",
		},
		{
			"input without option",
			`<description><executable name="x"><input name="a"/></executable></description>`,
			"no command-line option",
		},
		{
			"duplicate names",
			`<description><executable name="x">
			 <input name="a" option="-a"/><input name="a" option="-b"/>
			 </executable></description>`,
			"used by both",
		},
		{
			"output without access",
			`<description><executable name="x"><output name="o" option="-o"/></executable></description>`,
			"no access method",
		},
		{
			"sandbox without access",
			`<description><executable name="x"><sandbox name="s"/></executable></description>`,
			"no access method",
		},
		{
			"empty input name",
			`<description><executable name="x"><input option="-a"/></executable></description>`,
			"empty name",
		},
		{
			"lowercase input access type",
			`<description><executable name="x">
			 <input name="a" option="-a"><access type="gfn"/></input>
			 </executable></description>`,
			`descriptor x: input "a" has unknown access type "gfn"`,
		},
		{
			"unknown output access type",
			`<description><executable name="x">
			 <output name="o" option="-o"><access type="FTP"/></output>
			 </executable></description>`,
			`descriptor x: output "o" has unknown access type "FTP"`,
		},
		{
			"empty sandbox access type",
			`<description><executable name="x">
			 <sandbox name="s"><access type=""/></sandbox>
			 </executable></description>`,
			`descriptor x: sandbox "s" has unknown access type ""`,
		},
		{
			"access without type on the executable",
			`<description><executable name="x"><access/></executable></description>`,
			`descriptor x: executable has unknown access type ""`,
		},
	}
	for _, c := range cases {
		if _, err := Parse([]byte(c.xml)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.want)
		}
	}
}

func TestValidateAcceptsEveryAccessType(t *testing.T) {
	doc := `<description><executable name="x">
	 <access type="URL"/>
	 <input name="a" option="-a"><access type="GFN"/></input>
	 <input name="b" option="-b"><access type="local"/></input>
	 <output name="o" option="-o"><access type="GFN"/></output>
	 <sandbox name="s"><access type="local"/></sandbox>
	 </executable></description>`
	d, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	files, err := d.AppendStageIns(nil, map[string]string{"a": "gfn://a", "b": "lib/b.so"})
	if err != nil || len(files) != 1 || files[0] != "gfn://a" {
		t.Fatalf("AppendStageIns = %v, %v; want only the GFN input", files, err)
	}
}

// CommandLine reports the first unbound input before any unbound output,
// and on success allocates only the returned string.
func TestCommandLineErrorOrderAndAllocs(t *testing.T) {
	d := parseFigure8(t)
	_, err := d.CommandLine(Bindings{Inputs: map[string]string{"floating_image": "f", "scale": "1"}})
	if err == nil || !strings.Contains(err.Error(), `input "reference_image" not bound`) {
		t.Fatalf("err = %v, want the unbound input first", err)
	}
	bind := Bindings{
		Inputs:  map[string]string{"floating_image": "f", "reference_image": "r", "scale": "1"},
		Outputs: map[string]string{"crest_reference": "a", "crest_floating": "b"},
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = d.CommandLine(bind) }); n != 1 {
		t.Errorf("CommandLine allocates %.0f objects, want 1", n)
	}
}

func TestParseMalformedXML(t *testing.T) {
	if _, err := Parse([]byte("<description><executable")); err == nil {
		t.Fatal("malformed XML accepted")
	}
}

// Property: for any binding values, the composed command line contains every
// option and every bound value in declaration order.
func TestQuickCommandLineComplete(t *testing.T) {
	d := parseFigure8(t)
	f := func(a, b, c uint32) bool {
		bind := Bindings{
			Inputs: map[string]string{
				"floating_image":  "gfn://f" + itoa(a),
				"reference_image": "gfn://r" + itoa(b),
				"scale":           itoa(c),
			},
			Outputs: map[string]string{
				"crest_reference": "gfn://c1" + itoa(a),
				"crest_floating":  "gfn://c2" + itoa(b),
			},
		}
		cmd, err := d.CommandLine(bind)
		if err != nil {
			return false
		}
		last := -1
		for _, tok := range []string{"-im1", "-im2", "-s", "-c1", "-c2"} {
			i := strings.Index(cmd, tok+" ")
			if i <= last {
				return false
			}
			last = i
		}
		for _, v := range bind.Inputs {
			if !strings.Contains(cmd, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func itoa(v uint32) string {
	digits := "0123456789"
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{digits[v%10]}, b...)
		v /= 10
	}
	return string(b)
}
