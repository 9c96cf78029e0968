package main

import (
	"encoding/json"
	"os"
	"testing"
)

// smokeConfig shrinks a workload to a tiny design so every check runs in
// seconds.
func smokeConfig(t *testing.T, workload string, seed int64, trace bool) config {
	c := config{workload: workload, seed: seed, seconds: 1, trace: trace, outDir: t.TempDir()}
	if err := c.defaults(); err != nil {
		t.Fatal(err)
	}
	c.scale = 150
	if workload == "eco" {
		// Below this scale a 16-register pool is a large enough share of
		// the design that a clock-leaf ripple legitimately overflows the
		// compat graph's delta path.
		c.scale = 20
	}
	c.designs, c.setups, c.batches, c.rounds = 2, 2, 24, 6
	return c
}

// TestWorkloadsSmoke runs every workload untraced and traced on both the
// default and the held-out seed, with all output checks on.
func TestWorkloadsSmoke(t *testing.T) {
	for _, wl := range []string{"flow", "eco", "bankloop"} {
		for _, seed := range []int64{defaultSeed, heldOutSeed} {
			for _, trace := range []bool{false, true} {
				c := smokeConfig(t, wl, seed, trace)
				o, err := run(c)
				if err != nil {
					t.Fatalf("%s seed %d trace %t: %v", wl, seed, trace, err)
				}
				if o.checkErr != nil {
					t.Fatalf("%s seed %d trace %t: check failed: %v", wl, seed, trace, o.checkErr)
				}
				r := report(c, o)
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("%s seed %d trace %t: result %+v", wl, seed, trace, r)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(r.Metrics) != len(defs) {
					t.Errorf("%s: %d metrics, want %d", wl, len(r.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := r.Metrics[d.name]
					if !ok || v.Unit != d.unit {
						t.Errorf("%s: metric %s = %+v", wl, d.name, v)
					}
					// Tiny designs can meet timing, so only the
					// cost metrics must be positive here.
					if !trace && d.unit != "ps" && d.unit != "ns" && v.Value <= 0 {
						t.Errorf("%s seed %d: end-to-end metric %s = %g, want > 0", wl, seed, d.name, v.Value)
					}
				}
				if trace {
					for _, d := range perLayer {
						_, measured := o.ledger.vals[d.name]
						if !measured && o.ledger.notMeasured[d.name] == "" {
							t.Errorf("%s: per-layer metric %s neither measured nor explained", wl, d.name)
						}
					}
				}
			}
		}
	}
}

// TestCatalogueMatchesBenchmarkJSON pins the metric lists to
// BENCHMARK.json at the repository root.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != 3 || names[0] != "flow" || names[1] != "eco" || names[2] != "bankloop" {
		t.Errorf("workloads %v, want [flow eco bankloop]", names)
	}
}
