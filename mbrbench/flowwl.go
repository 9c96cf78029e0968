package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/compat"
	"repro/internal/compatgraph"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/flow"
	"repro/internal/geom"
	"repro/internal/ilp"
	"repro/internal/netlist"
	"repro/internal/partition"
	"repro/internal/place"
)

// maxFlowPasses bounds the flow workload's compose passes per design; it
// stops earlier when a pass commits no MBR.
const maxFlowPasses = 3

// flowDesign is one design's trip through the paper's flow on a session.
type flowDesign struct {
	setupS, composeS, runS float64
	heapMB                 float64
	allocMB, gcShare       float64
	calls                  int
	passes                 []*core.Result
	final                  flow.Metrics
	canonical              string
}

// flowSession decodes the input, opens a session, composes until a pass
// commits nothing (at most maxFlowPasses), takes the canonical measurement
// and runs the output checks. Set-up and the timed phase are timed
// separately; the checks are not timed. tr, when set, records one span per
// flow.Session call.
func flowSession(in *input, c config, tr *tracer, op int64) (*flowDesign, error) {
	fd := &flowDesign{}
	settle()
	t0 := time.Now()
	d, plan, err := decode(in, tr, op)
	if err != nil {
		return fd, err
	}
	var s *flow.Session
	fd.calls++
	if _, err := tr.do("flow.NewSession", 0, op, func() (err error) {
		s, err = flow.NewSession(d, plan, sessionConfig(c.workers))
		return err
	}); err != nil {
		return fd, err
	}
	defer s.Close()
	fd.calls++
	if _, err := tr.do("flow.Measure", 0, op, func() (err error) {
		_, err = s.Measure()
		return err
	}); err != nil {
		return fd, err
	}
	fd.setupS = secondsSince(t0)
	bits := connectedBits(d)

	settle()
	hs := startHeapSampler()
	defer hs.stopMB()
	rw := openRuntimeWindow()
	t1 := time.Now()
	for p := 0; p < maxFlowPasses; p++ {
		var r *core.Result
		fd.calls++
		tp := time.Now()
		if _, err := tr.do("flow.ComposePass", 0, op, func() (err error) {
			r, err = s.ComposePass()
			return err
		}); err != nil {
			return fd, err
		}
		fd.composeS += secondsSince(tp)
		fd.passes = append(fd.passes, r)
		if len(r.MBRs) == 0 {
			break
		}
	}
	var m flow.Metrics
	fd.calls++
	if _, err := tr.do("flow.MeasureCanonical", 0, op, func() (err error) {
		m, err = s.MeasureCanonical()
		return err
	}); err != nil {
		return fd, err
	}
	fd.runS = secondsSince(t1)
	fd.heapMB = hs.stopMB()
	fd.allocMB, fd.gcShare = rw.close()

	fd.final, err = checkSession(s, bits)
	if err != nil {
		return fd, err
	}
	fd.canonical = m.Canonical()
	if fd.final.Canonical() != fd.canonical {
		return fd, fmt.Errorf("check: repeated canonical measurement differs from the timed one")
	}
	return fd, nil
}

// runFlow is the flow workload: c.designs D1 designs, each generated from
// the seed, decoded and taken through the paper's flow on its own session.
func runFlow(c config) (*outcome, error) {
	n := c.designs
	if c.trace {
		n = 1 // the traced run repeats design 0 untraced, traced and engine-level
	}
	var tr *tracer
	if c.trace {
		tr = newTracer()
	}
	o := &outcome{e2e: map[string]float64{}}
	var designs []*flowDesign
	var first *input
	for i := 0; i < n; i++ {
		in, _, err := makeInput(c.profile, c.scale, designSeed(c.seed, i), tr)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			first = in
		}
		fd, err := flowSession(in, c, nil, int64(i))
		o.attempted += fd.calls
		if err != nil {
			o.failed++
			o.checkErr = fmt.Errorf("design %d (spec seed %d): %w", i, in.specSeed, err)
			break
		}
		designs = append(designs, fd)
	}
	if c.trace {
		if o.checkErr == nil {
			o.checkErr = traceFlow(c, tr, first, designs[0], o)
		}
		return o, nil
	}

	var setup, compose, runS, heap, rows []float64
	var qs []quality
	for _, fd := range designs {
		setup = append(setup, fd.setupS)
		compose = append(compose, fd.composeS)
		runS = append(runS, fd.runS)
		heap = append(heap, fd.heapMB)
		rows = append(rows, fd.runS*1000)
		qs = append(qs, qualityOf(fd.final))
	}
	o.e2e["setup_s"] = median(setup)
	o.e2e["compose_s"] = mean(compose)
	o.e2e["run_s"] = mean(runS)
	o.e2e["round_ms"] = median(compose) * 1000
	o.e2e["op_p50_ms"] = median(rows)
	o.e2e["op_p95_ms"] = quantile(rows, 0.95)
	if t := sum(runS); t > 0 {
		o.e2e["ops_per_s"] = float64(len(runS)) / t
	}
	o.e2e["peak_heap_mb"] = quantile(heap, 1)
	meanQuality(qs).put(o.e2e)
	return o, nil
}

// traceFlow is the flow workload's traced half: the op-level run of design
// 0 with one span per flow.Session call, then the engine-level replay that
// drives the retained engines itself, probes the first pass's input
// (candidate enumeration and the ILP) and replays the first pass's commit
// on a fresh copy of the design. Both replays must reproduce the untraced
// run's final Table 1 row. A second untraced session run, warm like the
// traced one, is the base of the tracing overhead.
func traceFlow(c config, tr *tracer, in *input, untraced *flowDesign, o *outcome) error {
	traced, err := flowSession(in, c, tr, 1)
	o.attempted += traced.calls
	if err != nil {
		o.failed++
		return fmt.Errorf("traced session run: %w", err)
	}
	warm, err := flowSession(in, c, nil, 2)
	o.attempted += warm.calls
	if err != nil {
		o.failed++
		return fmt.Errorf("second untraced session run: %w", err)
	}
	if traced.canonical != untraced.canonical || warm.canonical != untraced.canonical {
		return fmt.Errorf("repeated session runs of one design end in different rows")
	}

	er, pass1, probe, err := flowEngineReplay(in, c, tr, untraced)
	if err != nil {
		return fmt.Errorf("engine-level replay: %w", err)
	}
	commit, err := commitReplay(in, pass1, probe.names, tr)
	if err != nil {
		return fmt.Errorf("commit replay: %w", err)
	}
	if commit.regs != pass1.RegsAfter || commit.moved != pass1.LegalizationMoved || commit.failed != pass1.LegalizationFailed {
		return fmt.Errorf("commit replay: regs/moved/failed %d/%d/%d, compose pass 1 had %d/%d/%d",
			commit.regs, commit.moved, commit.failed, pass1.RegsAfter, pass1.LegalizationMoved, pass1.LegalizationFailed)
	}

	l := newLedger(tr.finish())
	o.ledger = l
	l.fromSpans("bench.generate_ms", "bench.Generate")
	l.fromSpans("netlist.read_json_ms", "netlist.ReadJSON")
	l.fromSpansTotal("netlist.merge_ms", "netlist.MergeRegisters")
	l.fromSpansTotal("scan.apply_merge_ms", "scan.Plan.ApplyMerge")
	l.fromSpans("place.legalize_incr_ms", "place.LegalizeIncremental")
	l.fromSpans("sta.full_ms", "sta.Run/full")
	l.fromSpans("sta.incr_ms", "sta.Run/incremental")
	sums := er.summaries()
	l.set("sta.rebuilds", float64(sums["sta"].Rebuilds))
	l.set("sta.delta_ratio", ratio(sums["sta"].Deltas, sums["sta"].Updates))
	setCompatLayers(l, sums["compat"])
	l.fromSpans("partition.subgraphs_ms", "compatgraph.SubgraphsHinted")
	l.fromSpans("core.inspect_ms", "core.InspectCandidates")
	l.fromSpansTotal("ilp.solve_ms", "ilp.SolveCover")
	l.set("ilp.nodes", float64(probe.nodes))
	setComposeCounters(l, traced.passes)
	l.fromSpans("core.compose_ms", "core.Engine.Compose")
	st := er.comp.Stats()
	l.set("core.memo_reuse_ratio", ratio(st.SubgraphsReused, st.SubgraphsSeen))
	l.fromSpans("cts.attach_ms", "cts.Attach")
	l.fromSpans("cts.update_ms", "cts.Update")
	l.fromSpans("cts.canonicalize_ms", "cts.Canonicalize")
	l.set("cts.delta_ratio", ratio(sums["cts"].Deltas, sums["cts"].Updates))
	l.fromSpans("route.overflow_ms", "route.OverflowEdges")
	l.set("route.delta_ratio", ratio(sums["route"].Deltas, sums["route"].Updates))
	l.fromSpans("metrics.aggregates_ms", "metrics.Aggregates")
	l.fromSpans("flow.measure_ms", "flow.Measure")
	l.fromSpans("flow.compose_pass_ms", "flow.ComposePass")
	l.fromSpans("flow.measure_canonical_ms", "flow.MeasureCanonical")
	l.set("runtime.alloc_mb", warm.allocMB)
	l.set("runtime.gc_cpu_share", warm.gcShare)
	l.set("trace.overhead_pct", 100*(traced.runS-warm.runS)/warm.runS)
	l.why("only the eco workload has a steady-state edit window", "engine.steady_rebuilds")
	l.why("the flow workload runs no server", "serve.apply_ms", "serve.measure_ms", "serve.http_ms")
	l.why("the flow workload applies no edits and runs no decompose or restore pass",
		"flow.apply_ms", "flow.decompose_pass_ms", "flow.restore_pass_ms")
	return writeTrace(c, l)
}

// setCompatLayers derives the compat graph's build and update times from
// the spans of its Update calls: a call the engine served on its delta path
// is an update, any other outcome a (re)build.
func setCompatLayers(l *ledger, sum engine.Summary) {
	var build, upd layerStat
	for key, s := range l.layers {
		kind, ok := strings.CutPrefix(key, "compatgraph.Update/")
		switch {
		case !ok || kind == "clean":
		case kind == string(compatgraph.KindDelta):
			upd = s
		default:
			build.Count += s.Count
			build.SelfNS += s.SelfNS
		}
	}
	if build.Count > 0 {
		l.set("compatgraph.build_ms", build.meanMS())
	}
	if upd.Count > 0 {
		l.set("compatgraph.update_ms", upd.meanMS())
	}
	l.set("compatgraph.delta_ratio", ratio(sum.Deltas, sum.Updates))
}

// setComposeCounters sums the compose counters of a session's passes.
func setComposeCounters(l *ledger, passes []*core.Result) {
	var cands, trunc, mbrs, moved, failed int
	for _, r := range passes {
		cands += r.Candidates
		trunc += r.TruncatedSubgraphs
		mbrs += len(r.MBRs)
		moved += r.LegalizationMoved
		failed += r.LegalizationFailed
	}
	l.set("core.candidates", float64(cands))
	l.set("core.truncated_subgraphs", float64(trunc))
	l.set("core.mbrs", float64(mbrs))
	l.set("core.legal_moved", float64(moved))
	l.set("core.legal_failed", float64(failed))
}

// probeResult is what the compose-stage probe learned from pass 1's input.
type probeResult struct {
	candidates int
	objective  float64
	nodes      int
	names      map[netlist.InstID]string
}

// flowEngineReplay takes design 0 through the flow again, driving the
// retained engines directly. On pass 1's input it runs the compose-stage
// probe. Its final canonical row must equal the untraced session's.
func flowEngineReplay(in *input, c config, tr *tracer, untraced *flowDesign) (*engineRun, *core.Result, *probeResult, error) {
	const op = 3
	d, plan, err := decode(in, nil, op)
	if err != nil {
		return nil, nil, nil, err
	}
	er, err := newEngineRun(d, plan, sessionConfig(c.workers), tr, op)
	if err != nil {
		return nil, nil, nil, err
	}
	if _, err := er.Measure(op); err != nil {
		return nil, nil, nil, err
	}
	probe := &probeResult{names: map[netlist.InstID]string{}}
	var pass1 *core.Result
	for p := 0; p < maxFlowPasses; p++ {
		var hook func(*compatgraph.Engine, [][]int) error
		if p == 0 {
			for _, r := range d.Registers() {
				probe.names[r.ID] = r.Name
			}
			hook = func(cg *compatgraph.Engine, subs [][]int) error {
				return probeCompose(d, cg.Graph(), er.composeOpts(), tr, op, probe)
			}
		}
		r, err := er.ComposePass(op, hook)
		if err != nil {
			return nil, nil, nil, err
		}
		if p == 0 {
			pass1 = r
		}
		if len(r.MBRs) == 0 {
			break
		}
	}
	m, err := er.MeasureCanonical(op)
	if err != nil {
		return nil, nil, nil, err
	}
	if got := m.Canonical(); got != untraced.canonical {
		return nil, nil, nil, fmt.Errorf("final row differs from the session run:\nengines:\n%ssession:\n%s", got, untraced.canonical)
	}
	if probe.candidates != pass1.Candidates {
		return nil, nil, nil, fmt.Errorf("probe enumerated %d candidates, pass 1 %d", probe.candidates, pass1.Candidates)
	}
	if diff := math.Abs(probe.objective - pass1.ObjectiveSum); diff > 1e-9*math.Max(1, math.Abs(pass1.ObjectiveSum)) {
		return nil, nil, nil, fmt.Errorf("probe ILP objective %.12g, pass 1 %.12g", probe.objective, pass1.ObjectiveSum)
	}
	return er, pass1, probe, nil
}

// weightPruneTol mirrors core's rule that a multi-member candidate pricing
// at or above its member count never enters an optimal cover; the probe
// builds the ILP instances with the same columns the compose engine does.
const weightPruneTol = 1e-12

// probeCompose enumerates pass 1's candidates with core.InspectCandidates
// and solves the per-subgraph set-partitioning instances built from them
// with ilp.SolveCover, one span per call.
func probeCompose(d *netlist.Design, g *compat.Graph, opts core.Options, tr *tracer, op int64, pr *probeResult) error {
	var cands []core.CandidateInfo
	if _, err := tr.do("core.InspectCandidates", 0, op, func() (err error) {
		cands, err = core.InspectCandidates(d, g, opts)
		return err
	}); err != nil {
		return err
	}
	pr.candidates = len(cands)
	maxNodes := opts.MaxSubgraphNodes
	if maxNodes <= 0 {
		maxNodes = 30
	}
	subs := partition.Decompose(len(g.Regs), g.Adj,
		func(n int) geom.Point { return g.Regs[n].ClockPos }, maxNodes)
	type slot struct{ sub, ord int }
	where := make(map[netlist.InstID]slot, len(g.Regs))
	insts := make([]ilp.CoverInstance, len(subs))
	for si, nodes := range subs {
		insts[si] = ilp.CoverInstance{NumElems: len(nodes), NodeLimit: opts.ILPNodeLimit}
		for k, n := range nodes {
			where[g.Regs[n].Inst.ID] = slot{si, k}
		}
	}
	for _, ci := range cands {
		if len(ci.Members) > 1 && ci.Weight >= float64(len(ci.Members))-weightPruneTol {
			continue
		}
		si := where[ci.Members[0]].sub
		ms := make([]int, len(ci.Members))
		for k, id := range ci.Members {
			ms[k] = where[id].ord
		}
		insts[si].Sets = append(insts[si].Sets, ilp.CoverSet{Members: ms, Weight: ci.Weight})
	}
	for _, inst := range insts {
		var cr *ilp.CoverResult
		if _, err := tr.do("ilp.SolveCover", 0, op, func() (err error) {
			cr, err = ilp.SolveCover(inst)
			return err
		}); err != nil {
			return err
		}
		pr.objective += cr.Objective
		pr.nodes += cr.Nodes
	}
	return nil
}

// commitOutcome is the state a commit replay leaves.
type commitOutcome struct{ regs, moved, failed int }

// commitReplay replays pass 1's selection on a fresh decode of the input —
// the design before composition — through the calls core's commit makes:
// netlist.MergeRegisters and scan.Plan.ApplyMerge per MBR, then one
// place.LegalizeIncremental over the new MBRs.
func commitReplay(in *input, pass1 *core.Result, names map[netlist.InstID]string, tr *tracer) (commitOutcome, error) {
	const op = 4
	d, plan, err := decode(in, nil, op)
	if err != nil {
		return commitOutcome{}, err
	}
	var mbrs []*netlist.Inst
	for _, m := range pass1.MBRs {
		group := make([]*netlist.Inst, len(m.Members))
		ids := make([]netlist.InstID, len(m.Members))
		for k, id := range m.Members {
			group[k] = d.InstByName(names[id])
			if group[k] == nil {
				return commitOutcome{}, fmt.Errorf("member %q of %s missing", names[id], m.Inst.Name)
			}
			ids[k] = group[k].ID
		}
		cell := d.Lib.CellByName(m.Cell.Name)
		var mr *netlist.MergeResult
		if _, err := tr.do("netlist.MergeRegisters", 0, op, func() (err error) {
			mr, err = d.MergeRegisters(group, cell, m.Inst.Name, m.Pos)
			return err
		}); err != nil {
			return commitOutcome{}, err
		}
		if _, err := tr.do("scan.Plan.ApplyMerge", 0, op, func() error {
			return plan.ApplyMerge(ids, mr.MBR.ID)
		}); err != nil {
			return commitOutcome{}, err
		}
		mbrs = append(mbrs, mr.MBR)
	}
	var lr *place.Result
	_, _ = tr.do("place.LegalizeIncremental", 0, op, func() error {
		lr = place.LegalizeIncremental(d, mbrs)
		return nil
	})
	return commitOutcome{regs: len(d.Registers()), moved: lr.Moved, failed: len(lr.Failed)}, nil
}
