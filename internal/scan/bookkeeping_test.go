package scan

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/netlist"
)

// scratchIndex rebuilds the register → (chain, pos) index from the chains
// alone: the reference the chain-local ApplyMerge/ApplySplit bookkeeping
// must match after every operation.
func scratchIndex(p *Plan) map[netlist.InstID]Ref {
	idx := map[netlist.InstID]Ref{}
	for ci, c := range p.chains {
		for pos, id := range c.Regs {
			idx[id] = Ref{Chain: ci, Pos: pos}
		}
	}
	return idx
}

// modelMerge is the whole-plan rewrite ApplyMerge used to perform: every
// chain drops the group members and the anchor chain gains the MBR at the
// earliest member's slot.
func modelMerge(chains [][]netlist.InstID, group []netlist.InstID, mbr netlist.InstID) {
	anchor := Ref{Chain: 1 << 30, Pos: 1 << 30}
	for ci, regs := range chains {
		for pos, id := range regs {
			if slices.Contains(group, id) &&
				(ci < anchor.Chain || (ci == anchor.Chain && pos < anchor.Pos)) {
				anchor = Ref{Chain: ci, Pos: pos}
			}
		}
	}
	for ci, regs := range chains {
		var kept []netlist.InstID
		for pos, id := range regs {
			if ci == anchor.Chain && pos == anchor.Pos {
				kept = append(kept, mbr)
			}
			if !slices.Contains(group, id) {
				kept = append(kept, id)
			}
		}
		chains[ci] = kept
	}
}

func modelSplit(chains [][]netlist.InstID, orig netlist.InstID, parts []netlist.InstID) {
	for ci, regs := range chains {
		if pos := slices.Index(regs, orig); pos >= 0 {
			chains[ci] = slices.Concat(regs[:pos:pos], parts, regs[pos+1:])
		}
	}
}

// TestChainLocalBookkeepingMatchesScratchIndex drives random merge and
// split sequences over a multi-chain plan — ordered sections, cross-chain
// groups within a partition, single-chain groups — and after every
// operation requires the retained refs to equal a from-scratch index, the
// chains to equal the whole-plan rewrite model, and Validate to pass.
func TestChainLocalBookkeepingMatchesScratchIndex(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			p := NewPlan()
			next := netlist.InstID(1)
			fresh := func() netlist.InstID { next++; return next - 1 }
			// Chains 0–1 unordered in partition 0, chain 2 unordered in
			// partition 1, chains 3–4 ordered in partitions 0 and 1.
			layout := []struct {
				part    int
				ordered bool
			}{{0, false}, {0, false}, {1, false}, {0, true}, {1, true}}
			var model [][]netlist.InstID
			for _, l := range layout {
				regs := make([]netlist.InstID, 4+rng.Intn(12))
				for i := range regs {
					regs[i] = fresh()
				}
				if _, err := p.AddChain(l.part, l.ordered, regs); err != nil {
					t.Fatal(err)
				}
				model = append(model, slices.Clone(regs))
			}

			for op := 0; op < 200; op++ {
				ci := rng.Intn(len(p.chains))
				c := p.chains[ci]
				if len(c.Regs) == 0 {
					continue
				}
				desc := ""
				if rng.Intn(3) == 0 {
					orig := c.Regs[rng.Intn(len(c.Regs))]
					parts := make([]netlist.InstID, 1+rng.Intn(3))
					for i := range parts {
						parts[i] = fresh()
					}
					desc = fmt.Sprintf("split %d → %v", orig, parts)
					if err := p.ApplySplit(orig, parts); err != nil {
						t.Fatalf("op %d %s: %v", op, desc, err)
					}
					modelSplit(model, orig, parts)
				} else {
					var group []netlist.InstID
					switch {
					case c.Ordered:
						k := min(2+rng.Intn(3), len(c.Regs))
						at := rng.Intn(len(c.Regs) - k + 1)
						group = slices.Clone(c.Regs[at : at+k])
					default:
						// Unordered: draw from every unordered chain of the
						// same partition, so groups often span chains.
						var pool []netlist.InstID
						for _, o := range p.chains {
							if !o.Ordered && o.Partition == c.Partition {
								pool = append(pool, o.Regs...)
							}
						}
						rng.Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
						group = pool[:min(2+rng.Intn(3), len(pool))]
					}
					if len(group) < 2 {
						continue
					}
					mbr := fresh()
					desc = fmt.Sprintf("merge %v → %d", group, mbr)
					if err := p.ApplyMerge(group, mbr); err != nil {
						t.Fatalf("op %d %s: %v", op, desc, err)
					}
					modelMerge(model, group, mbr)
				}

				if err := p.Validate(nil); err != nil {
					t.Fatalf("op %d %s: %v", op, desc, err)
				}
				want := scratchIndex(p)
				if len(p.ref) != len(want) {
					t.Fatalf("op %d %s: %d refs, scratch index has %d", op, desc, len(p.ref), len(want))
				}
				for id, r := range want {
					if p.ref[id] != r {
						t.Fatalf("op %d %s: ref[%d] = %+v, scratch %+v", op, desc, id, p.ref[id], r)
					}
				}
				for i, regs := range model {
					if !slices.Equal(p.chains[i].Regs, regs) {
						t.Fatalf("op %d %s: chain %d = %v, model %v", op, desc, i, p.chains[i].Regs, regs)
					}
				}
			}
		})
	}
}

// TestValidateDetectsMissingRef covers the gap the stale-ref sweep alone
// leaves open: a chain register with no index entry at all.
func TestValidateDetectsMissingRef(t *testing.T) {
	p := NewPlan()
	if _, err := p.AddChain(0, false, []netlist.InstID{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	delete(p.ref, 2)
	if err := p.Validate(nil); err == nil {
		t.Fatal("chain register without a ref must be detected")
	}
}
