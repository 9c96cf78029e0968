package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/flow"
)

// bankloopDecompose is the decompose step of every bank/debank round: the
// 16 worst-slack MBRs among the violating ones.
var bankloopDecompose = flow.DecomposeConfig{Budget: 16, SlackThresholdPS: 0}

// bankRun is one bankloop session.
type bankRun struct {
	setupS           []float64
	composeS, runS   float64
	roundMS          []float64
	heapMB           float64
	allocMB, gcShare float64
	calls            int
	passes           []*core.Result
	final            flow.Metrics
	engines          map[string]float64
}

// bankSession sets the session up `setups` times (keeping the last), then
// runs the timed phase: ComposePass + Measure, then c.rounds rounds of
// DecomposePassWith → RestorePass → ComposePass → Measure. The register
// count must be the same after every round of the second half; the final
// state must pass the output checks. WNS is not held to a fixed point: the
// loop keeps re-banking the worst-slack MBRs, and WNS moves in small steps
// long after the register count settled (design seed 10000: −10650 ps for
// rounds 1–6, −10250 ps from round 7, −10230 ps from round 14).
func bankSession(in *input, c config, setups int, tr *tracer, op int64) (*bankRun, error) {
	br := &bankRun{}
	var s *flow.Session
	for i := 0; i < setups; i++ {
		if s != nil {
			s.Close()
			s = nil
		}
		settle()
		t0 := time.Now()
		d, plan, err := decode(in, tr, op)
		if err != nil {
			return br, err
		}
		br.calls++
		if _, err := tr.do("flow.NewSession", 0, op, func() (err error) {
			s, err = flow.NewSession(d, plan, sessionConfig(c.workers))
			return err
		}); err != nil {
			return br, err
		}
		br.calls++
		id, err := tr.do("flow.Measure", 0, op, func() (err error) {
			_, err = s.Measure()
			return err
		})
		if err != nil {
			return br, err
		}
		tr.setKind(id, "setup")
		br.setupS = append(br.setupS, secondsSince(t0))
	}
	defer s.Close()
	bits := connectedBits(s.Design())

	compose := func() error {
		br.calls++
		t0 := time.Now()
		var r *core.Result
		_, err := tr.do("flow.ComposePass", 0, op, func() (err error) {
			r, err = s.ComposePass()
			return err
		})
		br.composeS += secondsSince(t0)
		if err == nil {
			br.passes = append(br.passes, r)
		}
		return err
	}
	measure := func() (flow.Metrics, error) {
		br.calls++
		var m flow.Metrics
		id, err := tr.do("flow.Measure", 0, op, func() (err error) {
			m, err = s.Measure()
			return err
		})
		tr.setKind(id, "loop")
		return m, err
	}

	settle()
	hs := startHeapSampler()
	defer hs.stopMB()
	rw := openRuntimeWindow()
	t1 := time.Now()
	if err := compose(); err != nil {
		return br, err
	}
	if _, err := measure(); err != nil {
		return br, err
	}
	var regs []int
	for r := 0; r < c.rounds; r++ {
		tr0 := time.Now()
		br.calls++
		if _, err := tr.do("flow.DecomposePassWith", 0, op, func() error {
			_, err := s.DecomposePassWith(bankloopDecompose)
			return err
		}); err != nil {
			return br, err
		}
		br.calls++
		if _, err := tr.do("flow.RestorePass", 0, op, func() error {
			_, err := s.RestorePass()
			return err
		}); err != nil {
			return br, err
		}
		if err := compose(); err != nil {
			return br, err
		}
		m, err := measure()
		if err != nil {
			return br, err
		}
		br.roundMS = append(br.roundMS, float64(time.Since(tr0).Nanoseconds())/1e6)
		regs = append(regs, m.TotalRegs)
	}
	br.runS = secondsSince(t1)
	br.heapMB = hs.stopMB()
	br.allocMB, br.gcShare = rw.close()

	for r := len(regs) / 2; r < len(regs); r++ {
		if regs[r] != regs[len(regs)/2] {
			return br, fmt.Errorf("check: register count did not settle: %v after rounds 1..%d", regs, len(regs))
		}
	}
	sums := s.Engines()
	br.engines = map[string]float64{
		"sta.rebuilds":            float64(sums["sta"].Rebuilds),
		"sta.delta_ratio":         ratio(sums["sta"].Deltas, sums["sta"].Updates),
		"compatgraph.delta_ratio": ratio(sums["compat"].Deltas, sums["compat"].Updates),
		"cts.delta_ratio":         ratio(sums["cts"].Deltas, sums["cts"].Updates),
		"route.delta_ratio":       ratio(sums["route"].Deltas, sums["route"].Updates),
	}
	var err error
	br.final, err = checkSession(s, bits)
	return br, err
}

// runBankloop is the bankloop workload: c.designs D4 designs generated from
// the seed, each set up c.setups times and then taken round the bank/debank
// loop.
func runBankloop(c config) (*outcome, error) {
	n := c.designs
	var tr *tracer
	if c.trace {
		n = 1 // the traced run repeats design 0 untraced and traced
		tr = newTracer()
	}
	o := &outcome{e2e: map[string]float64{}}
	var runs []*bankRun
	var first *input
	for i := 0; i < n; i++ {
		in, _, err := makeInput(c.profile, c.scale, designSeed(c.seed, i), tr)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			first = in
		}
		br, err := bankSession(in, c, c.setups, nil, int64(i))
		o.attempted += br.calls
		if err != nil {
			o.failed++
			o.checkErr = fmt.Errorf("design %d (spec seed %d): %w", i, in.specSeed, err)
			return o, nil
		}
		runs = append(runs, br)
	}
	if c.trace {
		o.checkErr = traceBankloop(c, tr, first, runs[0], o)
		return o, nil
	}
	var setup, compose, runS, rounds, heap []float64
	var qs []quality
	for _, br := range runs {
		setup = append(setup, br.setupS...)
		compose = append(compose, br.composeS)
		runS = append(runS, br.runS)
		rounds = append(rounds, br.roundMS...)
		heap = append(heap, br.heapMB)
		qs = append(qs, qualityOf(br.final))
	}
	o.e2e["setup_s"] = median(setup)
	o.e2e["compose_s"] = mean(compose)
	o.e2e["run_s"] = mean(runS)
	o.e2e["round_ms"] = median(rounds)
	o.e2e["op_p50_ms"] = median(rounds)
	o.e2e["op_p95_ms"] = quantile(rounds, 0.95)
	if t := sum(rounds); t > 0 {
		o.e2e["ops_per_s"] = float64(len(rounds)) / (t / 1000)
	}
	o.e2e["peak_heap_mb"] = quantile(heap, 1)
	meanQuality(qs).put(o.e2e)
	return o, nil
}

// traceBankloop repeats the session with one span per flow.Session call
// (op level only: decompose and restore have no engine-level entry), then
// once more untraced and warm, as the base of the tracing overhead.
func traceBankloop(c config, tr *tracer, in *input, untraced *bankRun, o *outcome) error {
	traced, err := bankSession(in, c, 1, tr, 1)
	o.attempted += traced.calls
	if err != nil {
		o.failed++
		return fmt.Errorf("traced session run: %w", err)
	}
	warm, err := bankSession(in, c, 1, nil, 2)
	o.attempted += warm.calls
	if err != nil {
		o.failed++
		return fmt.Errorf("second untraced session run: %w", err)
	}
	want := untraced.final.Canonical()
	if traced.final.Canonical() != want || warm.final.Canonical() != want {
		return fmt.Errorf("repeated session runs of one design end in different rows")
	}
	l := newLedger(tr.finish())
	o.ledger = l
	l.fromSpans("bench.generate_ms", "bench.Generate")
	l.fromSpans("netlist.read_json_ms", "netlist.ReadJSON")
	for k, v := range traced.engines {
		l.set(k, v)
	}
	setComposeCounters(l, traced.passes)
	l.fromSpans("flow.measure_ms", "flow.Measure/loop")
	l.fromSpans("flow.compose_pass_ms", "flow.ComposePass")
	l.fromSpans("flow.decompose_pass_ms", "flow.DecomposePassWith")
	l.fromSpans("flow.restore_pass_ms", "flow.RestorePass")
	l.set("runtime.alloc_mb", warm.allocMB)
	l.set("runtime.gc_cpu_share", warm.gcShare)
	l.set("trace.overhead_pct", 100*(traced.runS-warm.runS)/warm.runS)
	l.why("bankloop is traced at op level only: its engine calls run inside flow.Session's decompose, restore and compose passes, which have no engine-level public entry",
		"sta.full_ms", "sta.incr_ms", "compatgraph.build_ms", "compatgraph.update_ms",
		"partition.subgraphs_ms", "core.compose_ms", "cts.attach_ms", "cts.update_ms",
		"cts.canonicalize_ms", "route.overflow_ms", "metrics.aggregates_ms")
	l.why("flow.Session exposes only the compose engine's update summary, not its memo counters",
		"core.memo_reuse_ratio")
	l.why("the compose-stage probe (InspectCandidates, SolveCover) runs on the flow workload only",
		"core.inspect_ms", "ilp.solve_ms", "ilp.nodes")
	l.why("the commit replay runs on the flow workload only",
		"netlist.merge_ms", "scan.apply_merge_ms", "place.legalize_incr_ms")
	l.why("only the eco workload has a steady-state edit window", "engine.steady_rebuilds")
	l.why("bankloop runs no server", "serve.apply_ms", "serve.measure_ms", "serve.http_ms")
	l.why("bankloop applies no edits and measures canonically only in its checks",
		"flow.apply_ms", "flow.measure_canonical_ms")
	return writeTrace(c, l)
}
