package core

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/geom"
	"repro/internal/netlist"
)

// recountBlockers is the uncapped §3.2 n_i written out from the
// definition: every live register whose center lies in the convex hull of
// the members' footprint corners, the members excluded.
func recountBlockers(d *netlist.Design, members []netlist.InstID) int {
	var corners []geom.Point
	isMember := map[netlist.InstID]bool{}
	for _, id := range members {
		isMember[id] = true
		c := d.Inst(id).Bounds().Corners()
		corners = append(corners, c[:]...)
	}
	hull := geom.ConvexHull(corners)
	n := 0
	for _, r := range d.Registers() {
		if !isMember[r.ID] && geom.PolygonContains(hull, r.Center()) {
			n++
		}
	}
	return n
}

// TestBlockerCapKeepsCountsExact pins the blocker early stop: with the
// §3.2 weights on, the count stops at the candidate's bit total, which
// only ever drops candidates that would be dropped anyway. On every
// profile, each candidate InspectCandidates returns — weights on or off —
// must carry the exact uncapped count.
func TestBlockerCapKeepsCountsExact(t *testing.T) {
	for _, spec := range bench.All(bench.ProfileOpts{Scale: 150}) {
		gen, err := bench.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		d := gen.Design
		g := rebuildGraph(t, d, gen.Plan)
		for _, weights := range []bool{true, false} {
			opts := DefaultOptions()
			opts.UseWeights = weights
			infos, err := InspectCandidates(d, g, opts)
			if err != nil {
				t.Fatal(err)
			}
			multi := 0
			for _, ci := range infos {
				if len(ci.Members) < 2 {
					continue
				}
				multi++
				if want := recountBlockers(d, ci.Members); ci.Blockers != want {
					t.Fatalf("%s weights=%v: candidate %v has %d blockers, uncapped recount %d",
						spec.Name, weights, ci.Members, ci.Blockers, want)
				}
				if weights && ci.Blockers >= ci.Bits {
					t.Fatalf("%s: kept candidate %v with n=%d ≥ b=%d", spec.Name, ci.Members, ci.Blockers, ci.Bits)
				}
			}
			if multi == 0 {
				t.Fatalf("%s weights=%v: no multi-member candidates to check", spec.Name, weights)
			}
		}
	}
}
