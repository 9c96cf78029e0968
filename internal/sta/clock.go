package sta

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/netlist"
)

// clockArrivals propagates clock delay from clock sources (ports or
// undriven clock nets, which are treated as ideal) through clock buffers
// and gates — chains of gates compose — to every register's clock pin. It
// is recomputed from the live netlist on every Run: its cost is linear in
// the clock network (memoized per net), which keeps incremental runs
// correct under any clock-side edit (CTS teardown, buffer moves, mode
// switches) without per-edit invalidation bookkeeping. It starts a new
// clock pass (clkRun), lists every live register in regs (ascending ID)
// and leaves its arrival in clkArr.
func (e *Engine) clockArrivals() error {
	d := e.d
	e.clkRun++
	run := e.clkRun
	ni := d.InstSpace()
	e.clkArr = resizeFloats(e.clkArr, ni)
	e.effClk = grow(e.effClk, ni)
	e.effRun = grow(e.effRun, ni)
	e.regs = e.regs[:0]
	if e.ideal {
		d.Insts(func(in *netlist.Inst) {
			if in.Kind == netlist.KindReg {
				e.clkArr[in.ID] = 0
				e.regs = append(e.regs, in.ID)
			}
		})
		return nil
	}
	e.netArr = grow(e.netArr, d.NetSpace())
	e.netRun = grow(e.netRun, d.NetSpace())

	// netArrival computes arrival at a clock net's driver output,
	// memoized; ideal (0) at roots.
	memo := func(id netlist.NetID, v float64) float64 {
		e.netArr[id] = v
		e.netRun[id] = run
		return v
	}
	var netArrival func(id netlist.NetID, depth int) (float64, error)
	netArrival = func(id netlist.NetID, depth int) (float64, error) {
		if e.netRun[id] == run {
			return e.netArr[id], nil
		}
		if depth > 10000 {
			return 0, fmt.Errorf("sta: clock network loop on net %d", id)
		}
		n := d.Net(id)
		if n == nil || n.Driver == netlist.NoID {
			return memo(id, 0), nil // ideal clock root
		}
		drv := d.Pin(n.Driver)
		in := d.Inst(drv.Inst)
		if in == nil {
			return memo(id, 0), nil
		}
		switch in.Kind {
		case netlist.KindPort:
			return memo(id, 0), nil
		case netlist.KindClockBuf, netlist.KindClockGate:
			// Arrival at the buffer input net + buffer delay.
			var inNet netlist.NetID = netlist.NoID
			for _, pid := range in.Pins {
				p := d.Pin(pid)
				if p.Dir == netlist.DirIn && p.Net != netlist.NoID {
					pn := d.Net(p.Net)
					if pn.IsClock || p.Kind == netlist.PinData {
						inNet = p.Net
						break
					}
				}
			}
			base := 0.0
			if inNet != netlist.NoID {
				b, err := netArrival(inNet, depth+1)
				if err != nil {
					return 0, err
				}
				// Wire delay from upstream driver to this buffer's input
				// pin. When the netlist is inconsistent and the buffer has
				// no sink pin on its own input net, the distance is
				// explicitly zero rather than measured to a made-up pin.
				up := d.Net(inNet)
				if up.Driver != netlist.NoID {
					if spos, ok := netSinkPosOnInst(d, up, in); ok {
						b += d.Timing.WireDelayPerDBU *
							float64(d.PinPos(d.Pin(up.Driver)).ManhattanDist(spos))
					}
				}
				base = b
			}
			load := d.NetLoadCap(n)
			return memo(id, base+in.Comb.Intrinsic+in.Comb.DriveRes*load), nil
		default:
			return memo(id, 0), nil
		}
	}

	var firstErr error
	d.Insts(func(in *netlist.Inst) {
		if in.Kind != netlist.KindReg || firstErr != nil {
			return
		}
		e.regs = append(e.regs, in.ID)
		cp := d.ClockPin(in)
		if cp == nil || cp.Net == netlist.NoID {
			e.clkArr[in.ID] = 0
			return
		}
		base, err := netArrival(cp.Net, 0)
		if err != nil {
			firstErr = err
			return
		}
		n := d.Net(cp.Net)
		wire := 0.0
		if n.Driver != netlist.NoID {
			wire = d.Timing.WireDelayPerDBU *
				float64(d.PinPos(d.Pin(n.Driver)).ManhattanDist(d.PinPos(cp)))
		}
		e.clkArr[in.ID] = base + wire
	})
	return firstErr
}

// netSinkPosOnInst returns the position of the net's sink pin on the given
// instance. ok is false when the net has no sink there — a broken
// cross-reference; callers must treat the associated wire distance as zero
// instead of inventing a pin position (the old fallback fabricated a
// zero-offset pin at the instance origin, silently measuring a wrong wire
// delay).
func netSinkPosOnInst(d *netlist.Design, n *netlist.Net, in *netlist.Inst) (geom.Point, bool) {
	for _, s := range n.Sinks {
		p := d.Pin(s)
		if p.Inst == in.ID {
			return d.PinPos(p), true
		}
	}
	return geom.Point{}, false
}
