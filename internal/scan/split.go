package scan

import (
	"fmt"

	"repro/internal/netlist"
)

// ApplySplit updates the plan after a register was decomposed into parts
// (netlist.SplitRegister): the original chain entry is replaced by the
// parts in order, preserving the chain's scan sequence. Unscanned originals
// are a no-op. Only the split chain's tail from the original's position is
// re-indexed.
func (p *Plan) ApplySplit(orig netlist.InstID, parts []netlist.InstID) error {
	r, ok := p.ref[orig]
	if !ok {
		return nil
	}
	if len(parts) == 0 {
		return fmt.Errorf("scan: ApplySplit(%d): no parts", orig)
	}
	for _, id := range parts {
		if _, dup := p.ref[id]; dup {
			return fmt.Errorf("scan: ApplySplit: part %d already on a chain", id)
		}
	}
	c, pos := p.chains[r.Chain], r.Pos
	repl := make([]netlist.InstID, 0, len(c.Regs)+len(parts)-1)
	repl = append(repl, c.Regs[:pos]...)
	repl = append(repl, parts...)
	repl = append(repl, c.Regs[pos+1:]...)
	c.Regs = repl
	delete(p.ref, orig)
	p.indexFrom(r.Chain, pos)
	return nil
}
