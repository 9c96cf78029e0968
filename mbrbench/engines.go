package main

import (
	"fmt"
	"runtime"

	"repro/internal/compatgraph"
	"repro/internal/core"
	"repro/internal/cts"
	"repro/internal/engine"
	"repro/internal/flow"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/route"
	"repro/internal/scan"
	"repro/internal/sta"
)

// engineRun drives the six retained engines through their public calls in
// flow.Session's order, one span per call. It is the engine-level view of
// a session: its measurements must match the session's byte for byte, which
// proves the replay walked the session's path.
type engineRun struct {
	d    *netlist.Design
	plan *scan.Plan
	cfg  flow.Config
	tr   *tracer

	sta  *sta.Engine
	cg   *compatgraph.Engine
	cts  *cts.Engine
	met  *metrics.Tracker
	rt   *route.Engine
	comp *core.Engine

	passSeq int
}

func pick(group, global int) int {
	if group != 0 {
		return group
	}
	return global
}

// newEngineRun builds the engines as flow.NewSession does and attaches the
// clock trees.
func newEngineRun(d *netlist.Design, plan *scan.Plan, cfg flow.Config, tr *tracer, op int64) (*engineRun, error) {
	if cfg.TouchedLogCap > 0 {
		d.SetTouchedLogCap(cfg.TouchedLogCap)
	}
	d.ResetTouchedLog()
	e := &engineRun{
		d: d, plan: plan, cfg: cfg, tr: tr,
		sta: sta.New(d),
		cg: compatgraph.New(d, plan, compatgraph.Options{
			Compat:       cfg.Compat.Rules,
			Workers:      pick(cfg.Compat.Workers, cfg.Workers),
			MaxDeltaFrac: cfg.Compat.MaxDeltaFrac,
		}),
		cts:  cts.NewEngine(d, cfg.CTS.Tree),
		met:  metrics.New(d),
		rt:   route.NewEngine(d, cfg.Route.Est),
		comp: core.NewEngine(d),
	}
	e.sta.SetWorkers(pick(cfg.STA.Workers, cfg.Workers))
	e.rt.SetWorkers(pick(cfg.Route.Workers, cfg.Workers))
	e.comp.SetWorkers(pick(cfg.Compose.Workers, cfg.Workers))
	e.cg.SetTimingFeed(e.sta)
	cw := pick(cfg.CTS.Workers, cfg.Workers)
	if cw == 0 {
		cw = runtime.GOMAXPROCS(0)
	}
	e.cts.SetWorkers(cw)
	err := e.call("cts.Attach", 0, op, e.cts.Summary, e.cts.Attach)
	return e, err
}

// call runs one engine call in a span labelled with the update kind the
// engine reports for it ("clean" when its counters did not move).
func (e *engineRun) call(name string, parent int, op int64, sum func() engine.Summary, fn func() error) error {
	before := sum()
	id, err := e.tr.do(name, parent, op, fn)
	if after := sum(); after != before {
		e.tr.setKind(id, after.LastKind)
	} else {
		e.tr.setKind(id, "clean")
	}
	return err
}

func (e *engineRun) summaries() map[string]engine.Summary {
	return map[string]engine.Summary{
		"sta": e.sta.Summary(), "compat": e.cg.Summary(), "cts": e.cts.Summary(),
		"metrics": e.met.Summary(), "route": e.rt.Summary(), "compose": e.comp.Summary(),
	}
}

// staRun and cgUpdate are the two calls every measurement and compose pass
// starts with.
func (e *engineRun) staRun(parent int, op int64) (*sta.Results, error) {
	var res *sta.Results
	err := e.call("sta.Run", parent, op, e.sta.Summary, func() (err error) {
		res, err = e.sta.Run()
		return err
	})
	return res, err
}

func (e *engineRun) cgUpdate(res *sta.Results, parent int, op int64) *compatgraph.Engine {
	_ = e.call("compatgraph.Update", parent, op, e.cg.Summary, func() error {
		e.cg.Update(res)
		return nil
	})
	return e.cg
}

// measure snapshots the Table 1 row from the retained engines, in the order
// and with the arithmetic of flow's measure.
func (e *engineRun) measure(parent int, op int64) (flow.Metrics, error) {
	res, err := e.staRun(parent, op)
	if err != nil {
		return flow.Metrics{}, err
	}
	g := e.cgUpdate(res, parent, op).Graph()
	var cm cts.Metrics
	_ = e.call("cts.Metrics", parent, op, e.cts.Summary, func() error {
		cm = e.cts.Metrics()
		return nil
	})
	var overflow int
	_ = e.call("route.OverflowEdges", parent, op, e.rt.Summary, func() error {
		overflow = e.rt.OverflowEdges()
		return nil
	})
	var dm metrics.Aggregates
	_ = e.call("metrics.Aggregates", parent, op, e.met.Summary, func() error {
		dm = e.met.Aggregates()
		return nil
	})
	return flow.Metrics{
		AreaUM2:          float64(dm.AreaDBU2) / 1e6,
		Cells:            dm.Cells,
		TotalRegs:        dm.Regs,
		CompRegs:         len(g.Regs),
		ClkBufs:          cm.Buffers,
		ClkCapPF:         cm.TotalCapFF / 1000,
		TNSNS:            -res.TNS / 1000,
		WNSPS:            res.WNS,
		FailingEndpoints: res.FailingEndpoints,
		TotalEndpoints:   res.TotalEndpoints,
		OverflowEdges:    overflow,
		WLClkMM:          float64(cm.WirelengthDBU) / 1e6,
		WLSigMM:          float64(dm.SignalWLDBU) / 1e6,
	}, nil
}

// Measure is flow.Session.Measure: fold pending edits into the trees, then
// measure.
func (e *engineRun) Measure(op int64) (flow.Metrics, error) {
	var m flow.Metrics
	_, err := e.tr.nest("engine.Measure", 0, op, func(id int) error {
		if err := e.call("cts.Update", id, op, e.cts.Summary, e.cts.Update); err != nil {
			return err
		}
		var err error
		m, err = e.measure(id, op)
		return err
	})
	return m, err
}

// MeasureCanonical is flow.Session.MeasureCanonical.
func (e *engineRun) MeasureCanonical(op int64) (flow.Metrics, error) {
	var m flow.Metrics
	_, err := e.tr.nest("engine.MeasureCanonical", 0, op, func(id int) error {
		if err := e.call("cts.Canonicalize", id, op, e.cts.Summary, e.cts.Canonicalize); err != nil {
			return err
		}
		var err error
		m, err = e.measure(id, op)
		return err
	})
	return m, err
}

// composeInput runs the first half of a compose pass under ideal clocks:
// timing, the compat graph and its subgraph partition. The caller restores
// propagated clocks when the pass ends.
func (e *engineRun) composeInput(parent int, op int64) (*compatgraph.Engine, [][]int, []bool, error) {
	e.sta.SetIdealClocks(true)
	res, err := e.staRun(parent, op)
	if err != nil {
		return nil, nil, nil, err
	}
	cg := e.cgUpdate(res, parent, op)
	maxNodes := e.cfg.Compose.MaxSubgraphNodes
	if maxNodes <= 0 {
		maxNodes = 30
	}
	var subs [][]int
	var hints []bool
	_, _ = e.tr.do("compatgraph.SubgraphsHinted", parent, op, func() error {
		subs, hints = cg.SubgraphsHinted(maxNodes)
		return nil
	})
	return cg, subs, hints, nil
}

// composeOpts resolves the pass's options exactly as flow.Session does.
func (e *engineRun) composeOpts() core.Options {
	opts := e.cfg.Compose
	if e.cfg.Workers != 0 {
		opts.Workers = e.cfg.Workers
	}
	opts.ReleaseClocks = e.cts.ReleaseClocks
	if e.passSeq > 0 {
		prefix := opts.NamePrefix
		if prefix == "" {
			prefix = "mbrc"
		}
		opts.NamePrefix = fmt.Sprintf("%s_p%d", prefix, e.passSeq+1)
	}
	return opts
}

// ComposePass is flow.Session.ComposePass. probe, when set, runs on the
// pass's input (graph and subgraphs) before the compose engine commits.
func (e *engineRun) ComposePass(op int64, probe func(g *compatgraph.Engine, subs [][]int) error) (*core.Result, error) {
	var cres *core.Result
	_, err := e.tr.nest("engine.ComposePass", 0, op, func(id int) error {
		defer e.sta.SetIdealClocks(false)
		cg, subs, hints, err := e.composeInput(id, op)
		if err != nil {
			return err
		}
		if probe != nil {
			if err := probe(cg, subs); err != nil {
				return err
			}
		}
		opts := e.composeOpts()
		err = e.call("core.Engine.Compose", id, op, e.comp.Summary, func() (err error) {
			cres, err = e.comp.Compose(cg.Graph(), e.plan, subs, hints, opts)
			return err
		})
		if err != nil {
			return err
		}
		e.passSeq++
		if len(cres.MBRs) > 0 {
			return e.call("cts.Update", id, op, e.cts.Summary, e.cts.Update)
		}
		return nil
	})
	return cres, err
}

// apply applies the parametric edits of an eco batch through the netlist
// and timing-engine calls flow.Session.Apply uses for them.
func (e *engineRun) apply(edits []flow.Edit, op int64) error {
	_, err := e.tr.nest("engine.Apply", 0, op, func(id int) error {
		for i, ed := range edits {
			if err := e.applyOne(ed, id, op); err != nil {
				return fmt.Errorf("edit %d: %w", i, err)
			}
		}
		return nil
	})
	return err
}

func (e *engineRun) applyOne(ed flow.Edit, parent int, op int64) error {
	name := ed.Op()
	var inst string
	switch {
	case ed.Move != nil:
		inst = ed.Move.Inst
	case ed.Resize != nil:
		inst = ed.Resize.Inst
	case ed.Skew != nil:
		inst = ed.Skew.Inst
	default:
		return fmt.Errorf("engine replay supports move, resize and skew, not %q", name)
	}
	in := e.d.InstByName(inst)
	if in == nil {
		return fmt.Errorf("unknown instance %q", inst)
	}
	switch {
	case ed.Move != nil:
		if in.Fixed {
			return fmt.Errorf("instance %q is fixed", inst)
		}
		_, err := e.tr.do("netlist.MoveInst", parent, op, func() error {
			e.d.MoveInst(in, geom.Point{X: *ed.Move.X, Y: *ed.Move.Y})
			return nil
		})
		return err
	case ed.Resize != nil:
		cell := e.d.Lib.CellByName(ed.Resize.Cell)
		if cell == nil {
			return fmt.Errorf("unknown cell %q", ed.Resize.Cell)
		}
		_, err := e.tr.do("netlist.ResizeRegister", parent, op, func() error {
			return e.d.ResizeRegister(in, cell)
		})
		return err
	default:
		if in.Kind != netlist.KindReg {
			return fmt.Errorf("instance %q is not a register", inst)
		}
		_, err := e.tr.do("sta.SetSkew", parent, op, func() error {
			e.sta.SetSkew(in.ID, ed.Skew.SkewPS)
			return nil
		})
		return err
	}
}
