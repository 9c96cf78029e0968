package netlist_test

import (
	"bytes"
	"testing"

	"repro/internal/bench"
	"repro/internal/netlist"
	"repro/internal/scan"
)

// TestReadJSONRoundTripBytes: on every benchmark profile at Scale 20,
// WriteJSON → ReadJSON → WriteJSON reproduces the document byte for byte,
// and so does the scan plan's round trip against the reloaded design.
func TestReadJSONRoundTripBytes(t *testing.T) {
	for _, spec := range bench.All(bench.ProfileOpts{Scale: 20}) {
		t.Run(spec.Name, func(t *testing.T) {
			gen, err := bench.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			var first, firstScan bytes.Buffer
			if err := gen.Design.WriteJSON(&first); err != nil {
				t.Fatal(err)
			}
			if err := gen.Plan.WriteJSON(&firstScan, gen.Design); err != nil {
				t.Fatal(err)
			}
			d, err := netlist.ReadJSON(bytes.NewReader(first.Bytes()), gen.Design.Lib)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := scan.ReadJSON(bytes.NewReader(firstScan.Bytes()), d)
			if err != nil {
				t.Fatal(err)
			}
			var second, secondScan bytes.Buffer
			if err := d.WriteJSON(&second); err != nil {
				t.Fatal(err)
			}
			if err := plan.WriteJSON(&secondScan, d); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("design round trip changed the document (%d → %d bytes)", first.Len(), second.Len())
			}
			if !bytes.Equal(firstScan.Bytes(), secondScan.Bytes()) {
				t.Fatalf("scan plan round trip changed the document (%d → %d bytes)", firstScan.Len(), secondScan.Len())
			}
		})
	}
}
