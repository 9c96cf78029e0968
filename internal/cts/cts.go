// Package cts implements a simple clock-tree synthesizer: recursive
// geometric bisection clustering of clock sinks with fanout and capacitance
// limits, buffer insertion at cluster centroids, and clock-tree metrics
// (buffer count, total clock capacitance, clock wirelength).
//
// The paper evaluates its MBR composition by the clock-tree capacitance and
// buffer count after CTS (Table 1, columns "Clk Bufs" and "Clk Cap"); any
// capacity-limited clustering CTS translates sink-count/sink-cap reduction
// into those metrics the same way, which is all the reproduction needs.
//
// Two construction APIs share one clustering plan (plan.go): the batch
// Build/Tree.Remove pair tears a tree down and rebuilds it from scratch,
// and the retained Engine (engine.go) keeps trees alive across design
// edits, repairing only the clusters whose membership changed. Build is
// the Engine's fallback and its equality oracle: for the same sink set
// both produce identical trees.
package cts

import (
	"fmt"
	"slices"

	"repro/internal/geom"
	"repro/internal/netlist"
)

// Options configures tree construction.
type Options struct {
	// MaxFanout is the maximum sinks a buffer may drive.
	MaxFanout int
	// MaxCap is the maximum load capacitance per buffer (fF), including
	// estimated wire capacitance.
	MaxCap float64
	// Buffer is the clock-buffer cell model.
	Buffer *netlist.CombSpec
	// RecenterThresholdDBU enables re-center hysteresis on the retained
	// engine's delta path: a tree buffer keeps its current position until
	// the fresh plan centroid has drifted more than this Manhattan
	// distance from the centroid the buffer was last planted at. Holding
	// buffers put confines a sink edit's timing ripple to the clusters it
	// touched instead of re-centering — and hence re-loading — every
	// ancestor net in the domain. 0 (the default) re-centers on every
	// update, which keeps the engine's trees bit-identical to a fresh
	// Build; with a nonzero threshold tree geometry becomes edit-order
	// dependent, which sequence-replay consumers (the composition server's
	// journals) are built to accept.
	RecenterThresholdDBU int64
}

// DefaultOptions returns typical leaf-level CTS limits.
func DefaultOptions() Options {
	return Options{
		MaxFanout: 24,
		MaxCap:    60,
		Buffer: &netlist.CombSpec{
			Name: "CLKBUF_X4", NumInputs: 1, DriveRes: 1.5, Intrinsic: 18,
			InCap: 1.6, Width: 800, Height: 1200,
		},
	}
}

// Tree is a built clock tree, remembering what it created so it can be
// removed before a rebuild.
type Tree struct {
	d *netlist.Design
	// Root is the top buffer of the tree (nil for a sink-less clock).
	Root *netlist.Inst
	// Buffers are all inserted buffer instances, root included.
	Buffers []*netlist.Inst
	// nets created by the build, excluding the original root net.
	nets []*netlist.Net
	// Levels is the depth of the tree.
	Levels int
	// sink pins that were moved off the root net, for Remove.
	movedSinks []*netlist.Pin
	rootNet    *netlist.Net
}

// collectSinks snapshots the net's current sinks in canonical (ascending
// pin ID) order. Pin IDs are issued in creation order and the flow only
// ever appends new sinks, so for a flow-built design this equals the net's
// own sink order; sorting makes the tree — including the per-cluster
// floating-point capacitance sums — independent of connection history,
// which is what lets the retained Engine reproduce Build's result exactly.
func collectSinks(d *netlist.Design, rootNet *netlist.Net) []planSink {
	ids := slices.Clone(rootNet.Sinks)
	slices.Sort(ids)
	sinks := make([]planSink, len(ids))
	for i, pid := range ids {
		p := d.Pin(pid)
		sinks[i] = planSink{
			pin: p, child: -1, pos: d.PinPos(p), cap: p.Cap, ord: int64(pid),
		}
	}
	return sinks
}

// Build constructs a buffered tree for the given root clock net: every
// current sink of the net (register clock pins, clock-gate inputs) is
// re-parented under inserted buffers; the root buffer becomes the only sink
// of the original net.
//
// Sinks that are themselves clock gates keep their subtree: only direct
// sinks of rootNet are clustered (per-gated-domain trees can be built by
// calling Build on the gated nets).
func Build(d *netlist.Design, rootNet *netlist.Net, opts Options) (*Tree, error) {
	if opts.MaxFanout <= 1 || opts.Buffer == nil {
		return nil, fmt.Errorf("cts: invalid options")
	}
	if !rootNet.IsClock {
		return nil, fmt.Errorf("cts: net %q is not a clock net", rootNet.Name)
	}
	sinks := collectSinks(d, rootNet)
	t := &Tree{d: d, rootNet: rootNet}
	if len(sinks) == 0 {
		return t, nil
	}
	p, err := planTree(sinks, opts, 1)
	if err != nil {
		return nil, err
	}
	for _, s := range sinks {
		d.Disconnect(s.pin)
		t.movedSinks = append(t.movedSinks, s.pin)
	}
	nodes, err := realizeFresh(d, rootNet, p, opts, buildNamer(rootNet))
	if err != nil {
		return nil, err
	}
	for _, lvl := range nodes {
		for _, nd := range lvl {
			t.Buffers = append(t.Buffers, nd.buf)
			t.nets = append(t.nets, nd.net)
		}
	}
	t.Levels = len(nodes)
	t.Root = nodes[len(nodes)-1][0].buf
	// Connect the root buffer's input to the original clock net.
	d.Connect(inPin(d, t.Root), rootNet)
	return t, nil
}

// node is one realized cluster: a live buffer, the net it drives, and the
// net's member pins in canonical connect order.
type node struct {
	buf *netlist.Inst
	net *netlist.Net
	// memberPins is net's sink list in the order the plan connected it —
	// the invariant the Engine maintains so per-net capacitance sums are
	// bit-identical to a fresh Build.
	memberPins []netlist.PinID
	centroid   geom.Point
	// legalPos is where the last shared legalization pass left the buffer.
	// Every update moves buffers to their plan centroids and re-legalizes;
	// a node whose plan did not change lands back on the same site, so
	// comparing against legalPos (not the centroid) tells the metrics cache
	// whether the buffer really moved.
	legalPos geom.Point
}

// namer produces the buffer and net names for freshly realized clusters.
type namer func(level, ci, serial int) (bufName, netName string)

// buildNamer reproduces Build's historical naming scheme.
func buildNamer(rootNet *netlist.Net) namer {
	return func(level, ci, serial int) (string, string) {
		return fmt.Sprintf("%s_ctsbuf_L%d_%d_%d", rootNet.Name, level, ci, serial),
			fmt.Sprintf("%s_cts_L%d_%d", rootNet.Name, level, ci)
	}
}

// realizeFresh materializes a plan with all-new buffers and nets, level by
// level, in the exact order Build's original recursion created them.
// Member pins must already be detached from the root net.
func realizeFresh(d *netlist.Design, rootNet *netlist.Net, p *treePlan, opts Options, name namer) ([][]*node, error) {
	var nodes [][]*node
	serial := 0
	for l, level := range p.levels {
		row := make([]*node, len(level))
		for ci := range level {
			cl := &level[ci]
			bufName, netName := name(l, ci, serial)
			buf, err := d.AddClockBuf(bufName, opts.Buffer, cl.centroid)
			if err != nil {
				return nil, err
			}
			serial++
			net := d.AddNet(netName, true)
			d.Connect(d.OutPin(buf), net)
			nd := &node{buf: buf, net: net, centroid: cl.centroid}
			for _, m := range cl.members {
				pin := m.pin
				if pin == nil {
					pin = inPin(d, nodes[l-1][m.child].buf)
				}
				d.Connect(pin, net)
				nd.memberPins = append(nd.memberPins, pin.ID)
			}
			row[ci] = nd
		}
		nodes = append(nodes, row)
	}
	return nodes, nil
}

func inPin(d *netlist.Design, in *netlist.Inst) *netlist.Pin {
	return d.FindPin(in, netlist.PinData, 0)
}

// Remove deletes every buffer and net the build created and reattaches the
// original sinks to the root net, restoring the pre-CTS state.
func (t *Tree) Remove() {
	d := t.d
	for _, p := range t.movedSinks {
		d.Disconnect(p)
	}
	for _, b := range t.Buffers {
		d.RemoveInst(b)
	}
	for _, n := range t.nets {
		// All pins were on removed buffers or moved sinks; nets are empty.
		for len(n.Sinks) > 0 {
			d.Disconnect(d.Pin(n.Sinks[0]))
		}
		if n.Driver != netlist.NoID {
			d.Disconnect(d.Pin(n.Driver))
		}
		if err := d.RemoveNet(n); err != nil {
			panic(err) // internal invariant
		}
	}
	for _, p := range t.movedSinks {
		if d.Inst(p.Inst) != nil { // sink's instance may have been removed meanwhile
			d.Connect(p, t.rootNet)
		}
	}
	t.Buffers = nil
	t.nets = nil
	t.Root = nil
	t.movedSinks = nil
}

// Metrics summarizes the clock network of a design.
type Metrics struct {
	// Buffers is the number of clock buffers (KindClockBuf instances).
	Buffers int
	// Sinks is the number of register clock pins.
	Sinks int
	// TotalCapFF is the total capacitance on clock nets: sink pins, buffer
	// input pins and estimated wire capacitance (fF).
	TotalCapFF float64
	// WirelengthDBU is the total HPWL of clock nets.
	WirelengthDBU int64
}

// Measure computes clock-network metrics for the design's current state.
func Measure(d *netlist.Design) Metrics {
	var m Metrics
	d.Insts(func(in *netlist.Inst) {
		switch in.Kind {
		case netlist.KindClockBuf:
			m.Buffers++
		case netlist.KindReg:
			if cp := d.ClockPin(in); cp != nil && cp.Net != netlist.NoID {
				m.Sinks++
			}
		}
	})
	d.Nets(func(n *netlist.Net) {
		if !n.IsClock {
			return
		}
		// NetContrib is the shared per-net helper also behind the Engine's
		// cached metrics, so batch and cached totals agree bit-for-bit (and
		// each net's bounding box is computed once, not twice).
		capFF, hpwl := d.NetContrib(n)
		m.TotalCapFF += capFF
		m.WirelengthDBU += hpwl
	})
	return m
}
