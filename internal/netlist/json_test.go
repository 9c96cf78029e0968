package netlist

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	d, r1, _ := buildPair(t)
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := ReadJSON(&buf, testLib)
	if err != nil {
		t.Fatal(err)
	}
	if d2.NumInsts() != d.NumInsts() || d2.NumNets() != d.NumNets() {
		t.Fatalf("counts differ: insts %d/%d nets %d/%d",
			d.NumInsts(), d2.NumInsts(), d.NumNets(), d2.NumNets())
	}
	// Positions and cells survive.
	r1b := d2.InstByName(r1.Name)
	if r1b == nil || r1b.Pos != r1.Pos || r1b.RegCell.Name != r1.RegCell.Name {
		t.Fatal("register round trip failed")
	}
	// Connectivity: same HPWL per named net.
	d.Nets(func(n *Net) {
		n2 := findNet(d2, n.Name)
		if n2 == nil {
			t.Fatalf("net %q lost", n.Name)
			return
		}
		if d.NetHPWL(n) != d2.NetHPWL(n2) {
			t.Fatalf("net %q HPWL differs", n.Name)
		}
	})
	// Timing spec survives.
	if d2.Timing != d.Timing {
		t.Fatal("timing spec lost")
	}
}

func findNet(d *Design, name string) *Net {
	var out *Net
	d.Nets(func(n *Net) {
		if n.Name == name {
			out = n
		}
	})
	return out
}

func TestJSONAttributesSurvive(t *testing.T) {
	d, r1, r2 := buildPair(t)
	r1.Fixed = true
	r2.SizeOnly = true
	r2.GateGroup = 3
	r2.ScanPartition = 2
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := ReadJSON(&buf, testLib)
	if err != nil {
		t.Fatal(err)
	}
	if !d2.InstByName("r1").Fixed {
		t.Fatal("Fixed lost")
	}
	b := d2.InstByName("r2")
	if !b.SizeOnly || b.GateGroup != 3 || b.ScanPartition != 2 {
		t.Fatalf("attributes lost: %+v", b)
	}
}

func TestJSONUnknownCellRejected(t *testing.T) {
	d, _, _ := buildPair(t)
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	mangled := strings.Replace(buf.String(), d.Registers()[0].RegCell.Name, "NOPE_X9", 1)
	if _, err := ReadJSON(strings.NewReader(mangled), testLib); err == nil {
		t.Fatal("unknown cell must be rejected")
	}
}

func TestJSONGarbageRejected(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{nope"), testLib); err == nil {
		t.Fatal("garbage must be rejected")
	}
}

// pairJSON is buildPair's design as WriteJSON writes it.
func pairJSON(t testing.TB) string {
	t.Helper()
	d, _, _ := buildPair(t)
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// edit applies one textual replacement that must match exactly once.
func edit(t testing.TB, doc, old, new string) string {
	t.Helper()
	if n := strings.Count(doc, old); n != 1 {
		t.Fatalf("%q occurs %d times in the document, want 1", old, n)
	}
	return strings.Replace(doc, old, new, 1)
}

// TestReadJSONRejectsMalformedConnectivity: every pin reference a design
// cannot have is an error from ReadJSON — never a panic, never a silent
// rewire of the pin onto another net or into another role.
func TestReadJSONRejectsMalformedConnectivity(t *testing.T) {
	doc := pairJSON(t)
	cases := []struct {
		name, old, new, want string
	}{
		{"two drivers",
			`"sinks":[{"inst":"r1","kind":0,"bit":0}]`,
			`"sinks":[{"inst":"r1","kind":0,"bit":0},{"inst":"in_b","kind":0,"bit":0}]`,
			"two drivers"},
		{"driver is an input pin",
			`"driver":{"inst":"r1","kind":1,"bit":0}`,
			`"driver":{"inst":"out_a","kind":0,"bit":0}`,
			"is an input"},
		{"sink is an output pin",
			`{"name":"rst","sinks":[`,
			`{"name":"rst","sinks":[{"inst":"in_a","kind":0,"bit":0},`,
			"is an output"},
		{"pin on two nets",
			`{"name":"rst","sinks":[`,
			`{"name":"rst","sinks":[{"inst":"r1","kind":0,"bit":0},`,
			`already on net "rst"`},
		{"pin twice on one net",
			`{"name":"clk","clock":true,"sinks":[`,
			`{"name":"clk","clock":true,"sinks":[{"inst":"r1","kind":2,"bit":0},`,
			`already on net "clk"`},
		{"unknown instance",
			`"driver":{"inst":"r1","kind":1,"bit":0}`,
			`"driver":{"inst":"nope","kind":1,"bit":0}`,
			"unknown instance"},
		{"no such pin",
			`"driver":{"inst":"r1","kind":1,"bit":0}`,
			`"driver":{"inst":"r1","kind":1,"bit":7}`,
			"no pin"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadJSON(strings.NewReader(edit(t, doc, c.old, c.new)), testLib)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("ReadJSON error = %v, want one containing %q", err, c.want)
			}
		})
	}
	if _, err := ReadJSON(strings.NewReader(doc), testLib); err != nil {
		t.Fatalf("unedited document rejected: %v", err)
	}
}

// decodeReference is the oracle the design reader is held to:
// encoding/json's reflection decode of the same bytes.
func decodeReference(data []byte) (*jsonDesign, error) {
	var jd jsonDesign
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&jd); err != nil {
		return nil, err
	}
	return &jd, nil
}

// checkDecodeAgrees fails unless the design reader and encoding/json both
// reject data or both accept it with deeply equal results.
func checkDecodeAgrees(t *testing.T, data []byte) {
	t.Helper()
	want, werr := decodeReference(data)
	got, gerr := decodeDesign(data)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("accept sets differ on %q:\nencoding/json: %v\nreader:        %v", data, werr, gerr)
	}
	if werr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("decodes differ on %q:\nencoding/json: %+v\nreader:        %+v", data, want, got)
	}
}

// FuzzReadJSON is the specification of the design reader: on any input it
// accepts exactly what encoding/json accepts and decodes the same
// jsonDesign, and ReadJSON never panics, whatever the document says.
func FuzzReadJSON(f *testing.F) {
	doc := pairJSON(f)
	f.Add([]byte(doc))
	f.Add([]byte(doc + "trailing {garbage"))
	f.Add([]byte(edit(f, doc, `"sinks":[{"inst":"r1","kind":0,"bit":0}]`,
		`"sinks":[{"inst":"r1","kind":0,"bit":0},{"inst":"in_b","kind":0,"bit":0}]`)))
	f.Add([]byte(edit(f, doc, `{"name":"rst","sinks":[`, `{"name":"rst","sinks":[{"inst":"r1","kind":0,"bit":0},`)))
	for _, s := range []string{
		`null`,
		`{}`,
		` {"name":"t\u00e9\"x\/\n","insts":[{"name":"r\u0031","kind":2,"isInput":true},{"name":"é→\ud83d\ude00"}]}`,
		"{\"name\":\"\xff\xfe\",\"insts\":[{\"name\":\"a\xc3\",\"cell\":\"\\ud800x\"}]}",
		`{"name":null,"core":null,"siteW":null,"combs":null,"insts":[null,{"name":null,"x":null,"fixed":null}],"nets":[{"driver":null,"sinks":null},null]}`,
		`{"NAME":"x","Insts":[{"NaMe":"a","KIND":2,"\u017fizeOnly":true,"\u212aind":4,"ISINPUT":true}],"nEts":[{"Driver":{"INST":"a","BIT":0}}]}`,
		`{"extra":{"a":[1,-2.5e+3,{"b":null,"c":[true,false,"s"]}]},"insts":[{"name":"a","kind":2,"more":[[[]],{}]}],"nets":[{"name":"n","x":{"y":[0]},"driver":{"inst":"a","z":[]},"sinks":[{"inst":"a","w":{}}]}]}`,
		`{"insts":[{"name":"a","x":1},{"name":"b","y":2},{"name":"c"}],"insts":[{"kind":2}],"insts":[{},{},{},{}]}`,
		`{"insts":[{"x":1},{"x":2},{"x":3},{"x":4},{"x":5},{"x":6},{"x":7},{"x":8},{"x":9}],"insts":[{}],"insts":[{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}]}`,
		`{"nets":[{"sinks":[{"inst":"a"},{"inst":"b","bit":1}]}],"nets":[{"driver":{"kind":1},"sinks":[]}],"nets":[{"driver":{"bit":2}}]}`,
		`{"insts":[],"nets":[],"combs":[]}`,
		`{"insts":[{"name":"a"}],"insts":null,"nets":[{"name":"n","driver":{"inst":"a"},"sinks":[{"inst":"a"}]}],"nets":[{"driver":null,"sinks":null}]}`,
		`{"nets":[{"name":"n"}],"nets":null,"combs":[{"Name":"c"}],"combs":null,"core":[1,2,3,4],"core":null}`,
		`{"insts":[{"x":1.5}]}`,
		`{"insts":[{"x":1e3}]}`,
		`{"insts":[{"x":-0,"y":9223372036854775807,"gate":-9223372036854775808}]}`,
		`{"insts":[{"y":9223372036854775808}]}`,
		`{"insts":[{"x":01}]}`,
		`{"insts":[{"name":1}]}`,
		`{"insts":{}}`,
		`{"nets":[{"driver":[]}]}`,
		`{"combs":[{"Name":"INV","NumInputs":1,"Width":400,"Height":1200}],"insts":[{"name":"i","kind":0,"comb":"INV"}]}`,
		`{"combs":[null]}`,
		`{"timing":{"ClockPeriod":1e3,"clockperiod":2},"core":[1,2,3,4,5]}`,
		`{"insts":[{"name":"a",}]}`,
		`{"insts":[{"name":"a"]}`,
		`{"insts":[{"name":"a\q"}]}`,
		"{\"name\":\"tab\there\"}",
		"{\"insts\":[{\"name\":\"a\x01b\"}]}",
		`[]`,
		`"design"`,
		`nul`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeAgrees(t, data)
		if d, err := ReadJSON(bytes.NewReader(data), testLib); err == nil {
			if err := d.Validate(); err != nil {
				t.Fatalf("ReadJSON returned an invalid design: %v", err)
			}
		}
	})
}

// TestDecodeNestingLimit pins encoding/json's depth limit inside skipped
// values: 10000 open arrays and objects are allowed, one more is not.
func TestDecodeNestingLimit(t *testing.T) {
	for _, depth := range []int{maxJSONDepth - 1, maxJSONDepth, maxJSONDepth + 1} {
		// The top-level object is one level; the unknown value adds the rest.
		inner := depth - 1
		doc := `{"x":` + strings.Repeat(`[`, inner) + strings.Repeat(`]`, inner) + `}`
		checkDecodeAgrees(t, []byte(doc))
		_, err := decodeDesign([]byte(doc))
		if (err == nil) != (depth <= maxJSONDepth) {
			t.Fatalf("depth %d: err = %v", depth, err)
		}
		doc = `{"insts":[{"q":` + strings.Repeat(`{"a":`, inner-2) + `0` + strings.Repeat(`}`, inner-2) + `}]}`
		checkDecodeAgrees(t, []byte(doc))
	}
}
