package repro

// Equivalence oracle for the incremental STA engine: on every bench
// profile, a retained engine re-run after random register edits must be
// byte-identical — exact float equality, no tolerance — to a fresh
// from-scratch analysis of the same design state, at every worker count.
// Parametric rounds (moves, resizes, skews) exercise the cone
// re-propagation path; merge rounds exercise the structural-rebuild
// fallback.

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/sta"
)

// staRun is everything one analysis computed: the returned snapshot plus
// the per-pin arrival/required times and per-register clock arrivals,
// read through the engine accessors right after the run.
type staRun struct {
	res      *sta.Results
	arr, req []float64
	clk      map[netlist.InstID]float64
}

func runSTA(t *testing.T, d *netlist.Design, e *sta.Engine) staRun {
	t.Helper()
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	r := staRun{res: res, clk: map[netlist.InstID]float64{}}
	for i := range res.Slack {
		r.arr = append(r.arr, e.Arrival(netlist.PinID(i)))
		r.req = append(r.req, e.Required(netlist.PinID(i)))
	}
	d.Insts(func(in *netlist.Inst) {
		if a, ok := e.ClockArrival(in.ID); ok {
			r.clk[in.ID] = a
		}
	})
	return r
}

func sameSTAResults(t *testing.T, ctx string, got, want staRun) {
	t.Helper()
	if len(got.res.Slack) != len(want.res.Slack) {
		t.Fatalf("%s: pin space differs: %d vs %d", ctx, len(got.res.Slack), len(want.res.Slack))
	}
	for i := range got.res.Slack {
		if got.arr[i] != want.arr[i] {
			t.Fatalf("%s: arrival[%d] = %v want %v", ctx, i, got.arr[i], want.arr[i])
		}
		if got.req[i] != want.req[i] {
			t.Fatalf("%s: required[%d] = %v want %v", ctx, i, got.req[i], want.req[i])
		}
		if got.res.Slack[i] != want.res.Slack[i] {
			t.Fatalf("%s: slack[%d] = %v want %v", ctx, i, got.res.Slack[i], want.res.Slack[i])
		}
	}
	g, w := got.res, want.res
	if g.WNS != w.WNS || g.TNS != w.TNS ||
		g.FailingEndpoints != w.FailingEndpoints ||
		g.TotalEndpoints != w.TotalEndpoints {
		t.Fatalf("%s: summary differs: got WNS=%v TNS=%v fail=%d/%d, want WNS=%v TNS=%v fail=%d/%d",
			ctx, g.WNS, g.TNS, g.FailingEndpoints, g.TotalEndpoints,
			w.WNS, w.TNS, w.FailingEndpoints, w.TotalEndpoints)
	}
	if len(got.clk) != len(want.clk) {
		t.Fatalf("%s: clock arrival count differs: %d vs %d", ctx, len(got.clk), len(want.clk))
	}
	for id, v := range want.clk {
		if a, ok := got.clk[id]; !ok || a != v {
			t.Fatalf("%s: clock arrival[%d] = %v (present %v) want %v", ctx, id, a, ok, v)
		}
	}
}

func TestSTAIncrementalEquivalence(t *testing.T) {
	workerCounts := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		workerCounts = append(workerCounts, 2)
		if n > 2 {
			workerCounts = append(workerCounts, n)
		}
	}
	for _, name := range []string{"D1", "D2", "D3", "D4", "D5"} {
		for _, workers := range workerCounts {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				gen, err := bench.Generate(profileByName(name))
				if err != nil {
					t.Fatal(err)
				}
				d := gen.Design
				eng := sta.New(d)
				eng.SetWorkers(workers)
				if _, err := eng.Run(); err != nil {
					t.Fatal(err)
				}

				rng := rand.New(rand.NewSource(int64(len(name)*1000 + workers)))
				skews := map[netlist.InstID]float64{}
				for round := 0; round < 3; round++ {
					regs := d.Registers()
					if len(regs) == 0 {
						t.Fatal("no registers")
					}
					nEdit := len(regs) / 100
					if nEdit < 1 {
						nEdit = 1
					}
					for i := 0; i < nEdit; i++ {
						r := regs[rng.Intn(len(regs))]
						if r.Fixed || r.SizeOnly {
							continue
						}
						op := rng.Intn(3)
						if round == 2 {
							op = rng.Intn(4) // final round adds structural merges
						}
						switch op {
						case 0:
							d.MoveInst(r, geom.Point{
								X: r.Pos.X + int64(rng.Intn(4001)) - 2000,
								Y: r.Pos.Y + int64(rng.Intn(4001)) - 2000,
							})
						case 1:
							cs := d.Lib.CellsOfWidth(r.RegCell.Class, r.RegCell.Bits)
							if len(cs) > 1 {
								if err := d.ResizeRegister(r, cs[rng.Intn(len(cs))]); err != nil {
									t.Fatal(err)
								}
							}
						case 2:
							s := float64(rng.Intn(41) - 20)
							eng.SetSkew(r.ID, s)
							if s == 0 {
								delete(skews, r.ID)
							} else {
								skews[r.ID] = s
							}
						case 3:
							o := regs[rng.Intn(len(regs))]
							if o == r || o.Fixed || o.SizeOnly ||
								o.RegCell.Class != r.RegCell.Class {
								continue
							}
							cs := d.Lib.CellsOfWidth(r.RegCell.Class, r.Bits()+o.Bits())
							if len(cs) == 0 {
								continue
							}
							mergeName := fmt.Sprintf("eqm_%s_%d_%d_%d", name, workers, round, i)
							// Structural compatibility (shared control nets)
							// often fails for random pairs; that is fine — a
							// failed merge edits nothing.
							if _, err := d.MergeRegisters([]*netlist.Inst{r, o}, cs[0], mergeName, r.Pos); err == nil {
								regs = d.Registers()
							}
						}
					}

					got := runSTA(t, d, eng)
					oracle := sta.New(d)
					oracle.SetWorkers(workers)
					for id, s := range skews {
						oracle.SetSkew(id, s)
					}
					sameSTAResults(t, fmt.Sprintf("round %d", round), got, runSTA(t, d, oracle))
				}
				if s := eng.Stats(); s.IncrementalRuns == 0 {
					t.Fatalf("incremental path never engaged: %+v", s)
				}
			})
		}
	}
}
