package compatgraph_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/compat"
	"repro/internal/compatgraph"
	"repro/internal/netlist"
	"repro/internal/sta"
)

// TestFullSweepStatsMatchAllPairs pins the bucketed full sweep's
// bookkeeping to an all-pairs compat.PairTest loop: the pair count, the
// per-test reject counts and every node's reason bitmask (first failing
// test over its row's later ordinals) must read as if all n(n−1)/2 pairs
// had been tested — on every profile, after composition passes have
// reshaped the scan chains, and with cross-chain moves both allowed and
// disallowed.
func TestFullSweepStatsMatchAllPairs(t *testing.T) {
	for _, profile := range []string{"D1", "D2", "D3", "D4", "D5"} {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/w%d", profile, workers), func(t *testing.T) {
				b := genProfile(t, profile)
				d := b.Design
				eng := sta.New(d)
				eng.SetIdealClocks(true)
				cg := compatgraph.New(d, b.Plan, compatgraph.Options{Compat: compat.DefaultOptions(), Workers: workers})
				rng := rand.New(rand.NewSource(int64(len(profile) + workers)))
				for round := 0; round < 6; round++ {
					if round == 4 {
						b.Plan.AllowCrossChain = !b.Plan.AllowCrossChain
					}
					res, err := eng.Run()
					if err != nil {
						t.Fatalf("round %d: sta: %v", round, err)
					}
					cg.Invalidate()
					g := cg.Update(res)
					requireAllPairsStats(t, fmt.Sprintf("%s w%d round %d", profile, workers, round), d, cg, g)
					mutate(t, b, eng, rng, round)
				}
			})
		}
	}
}

func requireAllPairsStats(t *testing.T, ctx string, d *netlist.Design, cg *compatgraph.Engine, g *compat.Graph) {
	t.Helper()
	opts := compat.DefaultOptions()
	opts.SlackClamp = d.Timing.ClockPeriod
	allowCross := g.Plan == nil || g.Plan.AllowCrossChain
	sigs := make([]compat.StaticSig, len(g.Regs))
	for i, r := range g.Regs {
		sigs[i] = compat.SigOf(d, g.Plan, r.Inst)
	}
	pairs := 0
	var rejects [4]int
	for i := range g.Regs {
		var bound compat.TestMask
		for j := i + 1; j < len(g.Regs); j++ {
			mask, ok := compat.PairTest(opts, g.Regs[i], g.Regs[j], sigs[i], sigs[j], allowCross)
			pairs++
			if ok {
				continue
			}
			for k, test := range []compat.TestMask{compat.TestFunctional, compat.TestScan, compat.TestPlacement, compat.TestTiming} {
				if mask&test == 0 {
					bound |= test
					rejects[k]++
					break
				}
			}
		}
		if got := cg.BoundMask(g.Regs[i].Inst.ID); got != bound {
			t.Fatalf("%s: node %d (inst %d) bound mask %04b, all-pairs %04b", ctx, i, g.Regs[i].Inst.ID, got, bound)
		}
	}
	st := cg.Stats()
	if st.LastKind == compatgraph.KindDelta {
		t.Fatalf("%s: expected a full sweep, got %s", ctx, st.LastKind)
	}
	if st.LastPairsTested != pairs || st.LastRejectsByTest != rejects {
		t.Fatalf("%s: pairs %d rejects %v, all-pairs %d %v", ctx,
			st.LastPairsTested, st.LastRejectsByTest, pairs, rejects)
	}
}
