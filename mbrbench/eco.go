package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/netlist"
	"repro/internal/serve"
	"repro/internal/serve/wire"
)

// The eco workload's traffic, shaped like the repository's load harness
// (internal/serve/loadtest) shapes it: ten edits per batch over a
// 16-register Morton-local pool, and sessions that hold clock-tree buffers
// until their cluster centroid drifts 4 µm and accept up to half the
// compat nodes changed on the delta path.
//
// How expensive an edit's ripple is depends on the clock leaves and logic
// cones around the pool, and that varies a lot from one generated design
// to the next. So that one run's figures do not hang on one neighbourhood,
// each client drives two sessions (two designs) in turn, and each session's
// stream works through three pools spread over its die.
const (
	ecoClients        = 2
	ecoSessions       = 2 // per client
	ecoPools          = 3 // per session, worked in turn
	ecoPool           = 16
	ecoBatchEdits     = 10
	ecoRecenterDBU    = 4000
	ecoCompatDeltaMax = 0.5
)

// ecoSessionConfig is the tenant configuration every session is created
// with; ecoFlowConfig is the same configuration as the server resolves it,
// for the local replays.
var ecoSessionConfig = serve.SessionConfig{
	Workers:              1,
	RecenterThresholdDBU: ecoRecenterDBU,
	CompatMaxDeltaFrac:   ecoCompatDeltaMax,
}

func ecoFlowConfig() flow.Config {
	cfg := flow.DefaultConfig()
	cfg.Workers = ecoSessionConfig.Workers
	cfg.CTS.Tree.RecenterThresholdDBU = ecoSessionConfig.RecenterThresholdDBU
	cfg.Compat.MaxDeltaFrac = ecoSessionConfig.CompatMaxDeltaFrac
	return cfg
}

// ecoReg is one movable register of a session's design.
type ecoReg struct {
	name  string
	pos   [2]int64
	cells []string // same class and width, current cell first
}

// ecoRegs harvests the movable registers in Morton order, so a contiguous
// window is a spatial neighbourhood.
func ecoRegs(d *netlist.Design) []ecoReg {
	var regs []ecoReg
	d.Insts(func(in *netlist.Inst) {
		if in.Kind != netlist.KindReg || in.Fixed || in.RegCell == nil {
			return
		}
		r := ecoReg{name: in.Name, pos: [2]int64{in.Pos.X, in.Pos.Y}, cells: []string{in.RegCell.Name}}
		for _, c := range d.Lib.CellsOfWidth(in.RegCell.Class, in.RegCell.Bits) {
			if c.Name != in.RegCell.Name {
				r.cells = append(r.cells, c.Name)
			}
		}
		regs = append(regs, r)
	})
	sort.Slice(regs, func(i, j int) bool {
		mi, mj := morton(regs[i].pos), morton(regs[j].pos)
		if mi != mj {
			return mi < mj
		}
		return regs[i].name < regs[j].name
	})
	return regs
}

// morton interleaves the coarse (~1 µm) coordinate bits.
func morton(pos [2]int64) uint64 {
	x, y := uint64(pos[0])>>10, uint64(pos[1])>>10
	var m uint64
	for b := 0; b < 32; b++ {
		m |= (x>>b&1)<<(2*b) | (y>>b&1)<<(2*b+1)
	}
	return m
}

// ecoBatches builds a session's n edit batches: skews within ±40 ps plus at
// most one move (±400 DBU around the register's original position) or
// resize per batch. Batches edit one pool at a time; the pools start at
// evenly spaced points of the Morton order.
func ecoBatches(regs []ecoReg, rng *rand.Rand, n int) [][]flow.Edit {
	pool := min(ecoPool, len(regs))
	out := make([][]flow.Edit, n)
	for b := range out {
		start := b * ecoPools / n * len(regs) / ecoPools
		batch := make([]flow.Edit, 0, ecoBatchEdits)
		structural := rng.Intn(ecoBatchEdits)
		for e := 0; e < ecoBatchEdits; e++ {
			r := regs[(start+rng.Intn(pool))%len(regs)]
			switch {
			case e == structural && rng.Intn(2) == 0:
				batch = append(batch, flow.MoveTo(r.name,
					r.pos[0]+int64(rng.Intn(801)-400), r.pos[1]+int64(rng.Intn(801)-400)))
			case e == structural && len(r.cells) > 1:
				batch = append(batch, flow.Resize(r.name, r.cells[rng.Intn(len(r.cells))]))
			default:
				batch = append(batch, flow.Skew(r.name, float64(rng.Intn(81)-40)))
			}
		}
		out[b] = batch
	}
	return out
}

// ecoStream is one session's design and traffic, with its request bodies
// encoded ahead of the timed phase.
type ecoStream struct {
	name    string
	in      *input
	batches [][]flow.Edit
	create  []byte
	edits   [][]byte
}

// ecoInputs generates every session's design and stream. Session j is
// design j of the seed's family; client i drives sessions
// [i*ecoSessions, (i+1)*ecoSessions).
func ecoInputs(c config, tr *tracer) ([]*ecoStream, error) {
	streams := make([]*ecoStream, ecoClients*ecoSessions)
	for j := range streams {
		in, d, err := makeInput(c.profile, c.scale, designSeed(c.seed, j), tr)
		if err != nil {
			return nil, err
		}
		regs := ecoRegs(d)
		if len(regs) == 0 {
			return nil, fmt.Errorf("design %d has no movable registers", j)
		}
		rng := rand.New(rand.NewSource(c.seed + 7919*int64(j)))
		st := &ecoStream{name: fmt.Sprintf("s%d", j), in: in, batches: ecoBatches(regs, rng, c.batches/ecoSessions)}
		st.create, err = json.Marshal(serve.CreateRequest{
			Name:   st.name,
			Source: serve.Source{Design: in.design, Scan: in.scan},
			Config: ecoSessionConfig,
		})
		if err != nil {
			return nil, err
		}
		for _, b := range st.batches {
			body, err := json.Marshal(serve.EditsRequest{Edits: b})
			if err != nil {
				return nil, err
			}
			st.edits = append(st.edits, body)
		}
		streams[j] = st
	}
	return streams, nil
}

// ownStreams returns client i's sessions.
func ownStreams(streams []*ecoStream, i int) []*ecoStream {
	return streams[i*ecoSessions : (i+1)*ecoSessions]
}

// perClient runs fn once per client concurrently and waits for all of them.
func perClient(fn func(i int) error) error {
	errs := make([]error, ecoClients)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("client %d: %w", i, err)
		}
	}
	return nil
}

// httpClient is one closed-loop client: one connection, requests in turn.
type httpClient struct {
	base string
	hc   *http.Client
	tr   *tracer
}

func newHTTPClient(base string, tr *tracer) *httpClient {
	return &httpClient{base: base, tr: tr, hc: &http.Client{
		Timeout:   120 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

func (c *httpClient) close() { c.hc.CloseIdleConnections() }

// ecoSessionRun is what the client saw of one session.
type ecoSessionRun struct {
	canon    []string // warm-up, one per batch, final
	final    wire.Metrics
	composeS float64
	engines  wire.EngineSummaries // after the latest measurement
	// rebuilds counts, per engine and update kind, the rebuilds the
	// engines reported during the batch+measure ops.
	rebuilds map[string]int
}

// account records the engine rebuilds a measurement reports since the
// previous one.
func (s *ecoSessionRun) account(engs wire.EngineSummaries) {
	for k, cur := range engs {
		if d := cur.Rebuilds - s.engines[k].Rebuilds; d > 0 {
			if s.rebuilds == nil {
				s.rebuilds = map[string]int{}
			}
			s.rebuilds[k+"/"+cur.LastKind] += d
		}
	}
	s.engines = engs
}

// ecoClientRun is what one client observed across its sessions.
type ecoClientRun struct {
	opMS, measureMS []float64
	serverMS        []float64 // the server's own time per measure (MeasureResponse.Nanos)
	streamEnd       time.Time
	requests        int
	failed          int
}

// post sends one request in a span, counts it, and decodes a 2xx JSON body
// into out.
func (c *httpClient) post(path string, body []byte, out any, span string, op int64, run *ecoClientRun) error {
	run.requests++
	_, err := c.tr.do(span, 0, op, func() error {
		resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode/100 != 2 {
			return fmt.Errorf("POST %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
		}
		if out == nil {
			return nil
		}
		return json.Unmarshal(data, out)
	})
	if err != nil {
		run.failed++
	}
	return err
}

// setUp creates the client's sessions and takes their warm-up
// measurements.
func (c *httpClient) setUp(own []*ecoStream, sess []ecoSessionRun, run *ecoClientRun) error {
	for k, st := range own {
		if err := c.post("/v1/sessions", st.create, nil, "http.create", 0, run); err != nil {
			return err
		}
		var m serve.MeasureResponse
		if err := c.post("/v1/sessions/"+st.name+"/measure", []byte("{}"), &m, "http.measure", 0, run); err != nil {
			return err
		}
		sess[k] = ecoSessionRun{canon: []string{m.Canonical}, engines: m.Engines}
	}
	return nil
}

// stream runs the client's batches, its sessions in turn: per batch the
// edit POST and the measure POST, which together are one op.
func (c *httpClient) stream(own []*ecoStream, sess []ecoSessionRun, opBase int64, run *ecoClientRun) error {
	for b := range own[0].batches {
		for k, st := range own {
			op := opBase + int64(b*len(own)+k)
			path := "/v1/sessions/" + st.name
			t0 := time.Now()
			if err := c.post(path+"/edits", st.edits[b], nil, "http.edits", op, run); err != nil {
				return err
			}
			tm := time.Now()
			var m serve.MeasureResponse
			if err := c.post(path+"/measure", []byte("{}"), &m, "http.measure", op, run); err != nil {
				return err
			}
			run.measureMS = append(run.measureMS, float64(time.Since(tm).Nanoseconds())/1e6)
			run.opMS = append(run.opMS, float64(time.Since(t0).Nanoseconds())/1e6)
			run.serverMS = append(run.serverMS, float64(m.Nanos)/1e6)
			sess[k].canon = append(sess[k].canon, m.Canonical)
			sess[k].account(m.Engines)
		}
	}
	run.streamEnd = time.Now()
	return nil
}

// compose closes the client's sessions one after the other: one compose
// pass, then the final measurement. Compose does structural work, so it is
// outside the rebuild accounting.
func (c *httpClient) compose(own []*ecoStream, sess []ecoSessionRun, opBase int64, run *ecoClientRun) error {
	for k, st := range own {
		path := "/v1/sessions/" + st.name
		t0 := time.Now()
		if err := c.post(path+"/compose", []byte("{}"), nil, "http.compose", opBase, run); err != nil {
			return err
		}
		sess[k].composeS = secondsSince(t0)
		var m serve.MeasureResponse
		if err := c.post(path+"/measure", []byte("{}"), &m, "http.measure", opBase, run); err != nil {
			return err
		}
		sess[k].canon = append(sess[k].canon, m.Canonical)
		sess[k].final = m.Metrics
	}
	return nil
}

// ecoServerRun is one pass of the eco workload against a fresh in-process
// server: `setups` set-ups of every session (the last one kept), then the
// clients' timed phase.
type ecoServerRun struct {
	setupS   []float64
	clients  [ecoClients]ecoClientRun
	sessions []ecoSessionRun // indexed like the streams
	runS     float64
	windowS  float64
	heapMB   float64
	allocMB  float64
	gcShare  float64
}

func (r *ecoServerRun) requests() (n, failed int) {
	for _, c := range r.clients {
		n += c.requests
		failed += c.failed
	}
	return n, failed
}

// ecoServe runs the clients against a fresh serve.Handler on a loopback
// listener.
func ecoServe(streams []*ecoStream, setups int, tr *tracer) (*ecoServerRun, error) {
	mgr := serve.NewManager(serve.Options{MaxSessions: len(streams)})
	ts := httptest.NewServer(serve.Handler(mgr))
	defer ts.Close()
	clients := make([]*httpClient, ecoClients)
	for i := range clients {
		clients[i] = newHTTPClient(ts.URL, tr)
		defer clients[i].close()
	}
	run := &ecoServerRun{sessions: make([]ecoSessionRun, len(streams))}
	own := func(i int) ([]*ecoStream, []ecoSessionRun) {
		return ownStreams(streams, i), run.sessions[i*ecoSessions : (i+1)*ecoSessions]
	}

	for k := 0; k < setups; k++ {
		if k > 0 {
			for _, st := range streams {
				mgr.Evict(st.name)
			}
		}
		settle()
		t0 := time.Now()
		err := perClient(func(i int) error {
			st, sess := own(i)
			return clients[i].setUp(st, sess, &run.clients[i])
		})
		if err != nil {
			return run, err
		}
		run.setupS = append(run.setupS, secondsSince(t0))
	}

	settle()
	hs := startHeapSampler()
	defer hs.stopMB()
	rw := openRuntimeWindow()
	t0 := time.Now()
	// Both clients stream, then both compose: no compose pass overlaps the
	// other client's ops.
	err := perClient(func(i int) error {
		st, sess := own(i)
		return clients[i].stream(st, sess, int64(i+1)*1_000_000, &run.clients[i])
	})
	if err == nil {
		err = perClient(func(i int) error {
			st, sess := own(i)
			return clients[i].compose(st, sess, int64(i+1)*1_000_000+999_999, &run.clients[i])
		})
	}
	run.runS = secondsSince(t0)
	run.heapMB = hs.stopMB()
	run.allocMB, run.gcShare = rw.close()
	if err != nil {
		return run, err
	}
	end := t0
	for _, c := range run.clients {
		if c.streamEnd.After(end) {
			end = c.streamEnd
		}
	}
	run.windowS = end.Sub(t0).Seconds()
	for _, st := range streams {
		mgr.Evict(st.name)
	}
	return run, nil
}

// ecoReplay replays one stream on a single-threaded local flow.Session —
// the load harness's determinism oracle — and returns the canonical row of
// every measurement: warm-up, one per batch, final.
func ecoReplay(st *ecoStream, tr *tracer, op int64) ([]string, error) {
	d, plan, err := decode(st.in, nil, op)
	if err != nil {
		return nil, err
	}
	s, err := flow.NewSession(d, plan, ecoFlowConfig())
	if err != nil {
		return nil, err
	}
	defer s.Close()
	var out []string
	measure := func(kind string) error {
		var m flow.Metrics
		id, err := tr.do("flow.Measure", 0, op, func() (err error) {
			m, err = s.Measure()
			return err
		})
		tr.setKind(id, kind)
		out = append(out, m.Canonical())
		return err
	}
	if err := measure("setup"); err != nil {
		return nil, err
	}
	for b, batch := range st.batches {
		if _, err := tr.do("flow.Apply", 0, op, func() error {
			_, err := s.Apply(batch)
			return err
		}); err != nil {
			return nil, fmt.Errorf("batch %d: %w", b, err)
		}
		if err := measure("steady"); err != nil {
			return nil, err
		}
	}
	if _, err := tr.do("flow.ComposePass", 0, op, func() error {
		_, err := s.ComposePass()
		return err
	}); err != nil {
		return nil, err
	}
	if err := measure("final"); err != nil {
		return nil, err
	}
	return out, nil
}

// sameRows compares a run's measurement rows with the oracle's.
func sameRows(what string, got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d measurements, oracle %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s: measurement %d differs from the local replay:\ngot:\n%swant:\n%s", what, i, got[i], want[i])
		}
	}
	return nil
}

// checkECO runs the eco output check: every session's measurement rows
// must equal a single-threaded local replay of its stream. It returns the
// oracle's rows per session.
func checkECO(streams []*ecoStream, run *ecoServerRun, tr *tracer) ([][]string, error) {
	want := make([][]string, len(streams))
	err := perClient(func(i int) error {
		for k, st := range ownStreams(streams, i) {
			j := i*ecoSessions + k
			rows, err := ecoReplay(st, tr, int64(j+1)*10_000_000)
			if err != nil {
				return fmt.Errorf("local replay of session %s: %w", st.name, err)
			}
			if err := sameRows("check: session "+st.name, run.sessions[j].canon, rows); err != nil {
				return err
			}
			want[j] = rows
		}
		return nil
	})
	return want, err
}

// steadyRebuilds totals the engine rebuilds of the batch+measure ops and
// reports them by engine and kind on standard error. The retained engines
// aim to serve these ops on their delta paths, but a rebuild is their
// documented fallback, not an error: the compat engine sweeps in full when
// a measurement changed more than ecoCompatDeltaMax of its nodes, and a
// clock-tree update that adds or removes a buffer is a structural edit the
// timing engine rebuilds for. How often either happens depends on the
// design around the edited pools, so the count is measured, not checked.
func steadyRebuilds(run *ecoServerRun) int {
	total := 0
	byKind := map[string]int{}
	for _, s := range run.sessions {
		for k, n := range s.rebuilds {
			byKind[k] += n
			total += n
		}
	}
	fmt.Fprintf(os.Stderr, "mbrbench: eco: %d steady-state engine rebuilds %v\n", total, byKind)
	return total
}

// runECO is the eco workload.
func runECO(c config) (*outcome, error) {
	var tr *tracer
	if c.trace {
		tr = newTracer()
	}
	streams, err := ecoInputs(c, tr)
	if err != nil {
		return nil, err
	}
	o := &outcome{e2e: map[string]float64{}}
	setups := c.setups
	if c.trace {
		setups = 1
	}
	run, err := ecoServe(streams, setups, nil)
	o.attempted, o.failed = run.requests()
	if err != nil {
		o.checkErr = err
		return o, nil
	}
	rebuilds := steadyRebuilds(run)
	want, err := checkECO(streams, run, tr)
	if err != nil {
		o.checkErr = err
		return o, nil
	}
	if c.trace {
		o.checkErr = traceECO(c, tr, streams, want, rebuilds, o)
		return o, nil
	}

	var ops, measures []float64
	for _, cr := range run.clients {
		ops = append(ops, cr.opMS...)
		measures = append(measures, cr.measureMS...)
	}
	var composes []float64
	var qs []quality
	for _, s := range run.sessions {
		composes = append(composes, s.composeS)
		qs = append(qs, quality{
			regs: float64(s.final.TotalRegs), clkCapPF: s.final.ClkCapPF, wnsPS: -s.final.WNSPS,
			tnsNS: s.final.TNSNS, overflow: float64(s.final.OverflowEdges), wlSigMM: s.final.WLSigMM,
		})
	}
	o.e2e["setup_s"] = median(run.setupS)
	o.e2e["compose_s"] = mean(composes)
	o.e2e["run_s"] = run.runS
	o.e2e["round_ms"] = median(measures)
	o.e2e["op_p50_ms"] = median(ops)
	o.e2e["op_p95_ms"] = quantile(ops, 0.95)
	if run.windowS > 0 {
		o.e2e["ops_per_s"] = float64(len(ops)) / run.windowS
	}
	o.e2e["peak_heap_mb"] = run.heapMB
	meanQuality(qs).put(o.e2e)
	return o, nil
}

// traceECO is the eco workload's traced half. The untraced run (with its
// oracle replays traced) is followed by the same traffic over HTTP with a
// span per request, the same again untraced and warm (the base of the
// tracing overhead), then through in-process serve.Session calls, then by
// an engine-level replay of session 0's stream that must reproduce every
// one of its measurement rows.
func traceECO(c config, tr *tracer, streams []*ecoStream, want [][]string, rebuilds int, o *outcome) error {
	var traced, warm *ecoServerRun
	for _, pass := range []struct {
		run **ecoServerRun
		tr  *tracer
	}{{&traced, tr}, {&warm, nil}} {
		run, err := ecoServe(streams, 1, pass.tr)
		n, failed := run.requests()
		o.attempted += n
		o.failed += failed
		if err != nil {
			return fmt.Errorf("repeated HTTP run: %w", err)
		}
		for j, s := range run.sessions {
			if err := sameRows("repeated HTTP run, session "+streams[j].name, s.canon, want[j]); err != nil {
				return err
			}
		}
		*pass.run = run
	}

	if err := ecoInProcess(streams, tr, want); err != nil {
		return fmt.Errorf("in-process serve run: %w", err)
	}

	er, closing, err := ecoEngineReplay(streams[0], tr, want[0])
	if err != nil {
		return fmt.Errorf("engine-level replay: %w", err)
	}

	l := newLedger(tr.finish())
	o.ledger = l
	l.fromSpans("bench.generate_ms", "bench.Generate")
	l.fromSpans("netlist.read_json_ms", "netlist.ReadJSON")
	l.fromSpans("sta.full_ms", "sta.Run/full")
	l.fromSpans("sta.incr_ms", "sta.Run/incremental")
	sums := er.summaries()
	l.set("sta.rebuilds", float64(sums["sta"].Rebuilds))
	l.set("sta.delta_ratio", ratio(sums["sta"].Deltas, sums["sta"].Updates))
	setCompatLayers(l, sums["compat"])
	l.set("engine.steady_rebuilds", float64(rebuilds))
	l.fromSpans("partition.subgraphs_ms", "compatgraph.SubgraphsHinted")
	setComposeCounters(l, []*core.Result{closing})
	l.fromSpans("core.compose_ms", "core.Engine.Compose")
	st := er.comp.Stats()
	l.set("core.memo_reuse_ratio", ratio(st.SubgraphsReused, st.SubgraphsSeen))
	l.fromSpans("cts.attach_ms", "cts.Attach")
	l.fromSpans("cts.update_ms", "cts.Update")
	l.set("cts.delta_ratio", ratio(sums["cts"].Deltas, sums["cts"].Updates))
	l.fromSpans("route.overflow_ms", "route.OverflowEdges")
	l.set("route.delta_ratio", ratio(sums["route"].Deltas, sums["route"].Updates))
	l.fromSpans("metrics.aggregates_ms", "metrics.Aggregates")
	l.fromSpans("flow.apply_ms", "flow.Apply")
	l.fromSpans("flow.measure_ms", "flow.Measure/steady")
	l.fromSpans("flow.compose_pass_ms", "flow.ComposePass")
	l.fromSpans("serve.apply_ms", "serve.Session.Apply")
	l.fromSpans("serve.measure_ms", "serve.Session.Measure/steady")
	// The measure response carries the server's own time for the call, so
	// HTTP, JSON and client time per op is the op latency minus that and
	// minus the (in-process) apply time.
	var httpMS []float64
	for _, cr := range traced.clients {
		for k := range cr.opMS {
			httpMS = append(httpMS, cr.opMS[k]-cr.serverMS[k])
		}
	}
	l.set("serve.http_ms", mean(httpMS)-l.vals["serve.apply_ms"])
	l.set("runtime.alloc_mb", warm.allocMB)
	l.set("runtime.gc_cpu_share", warm.gcShare)
	l.set("trace.overhead_pct", 100*(traced.runS-warm.runS)/warm.runS)
	l.why("the compose-stage probe (InspectCandidates, SolveCover) runs on the flow workload only",
		"core.inspect_ms", "ilp.solve_ms", "ilp.nodes")
	l.why("the commit replay runs on the flow workload only",
		"netlist.merge_ms", "scan.apply_merge_ms", "place.legalize_incr_ms")
	l.why("eco never takes a canonical measurement and runs no decompose or restore pass",
		"cts.canonicalize_ms", "flow.measure_canonical_ms", "flow.decompose_pass_ms", "flow.restore_pass_ms")
	return writeTrace(c, l)
}

// ecoInProcess sends the same traffic through serve.Session calls on an
// in-process manager (no HTTP): each client's sessions in turn, the
// clients concurrently.
func ecoInProcess(streams []*ecoStream, tr *tracer, want [][]string) error {
	mgr := serve.NewManager(serve.Options{MaxSessions: len(streams)})
	return perClient(func(i int) error {
		own := ownStreams(streams, i)
		sess := make([]*serve.Session, len(own))
		rows := make([][]string, len(own))
		measure := func(k int, op int64, kind string) error {
			var m flow.Metrics
			id, err := tr.do("serve.Session.Measure", 0, op, func() (err error) {
				m, _, err = sess[k].Measure()
				return err
			})
			tr.setKind(id, kind)
			rows[k] = append(rows[k], m.Canonical())
			return err
		}
		opBase := int64(i+1)*1_000_000 + 500_000
		for k, st := range own {
			if _, err := tr.do("serve.Manager.Create", 0, opBase, func() (err error) {
				sess[k], err = mgr.Create(st.name, serve.Source{Design: st.in.design, Scan: st.in.scan}, ecoSessionConfig)
				return err
			}); err != nil {
				return err
			}
			defer mgr.Evict(st.name)
			if err := measure(k, opBase, "setup"); err != nil {
				return err
			}
		}
		for b := range own[0].batches {
			for k, st := range own {
				op := opBase + int64(b*len(own)+k)
				if _, err := tr.do("serve.Session.Apply", 0, op, func() error {
					_, _, err := sess[k].Apply(st.batches[b])
					return err
				}); err != nil {
					return err
				}
				if err := measure(k, op, "steady"); err != nil {
					return err
				}
			}
		}
		for k, st := range own {
			if _, err := tr.do("serve.Session.Compose", 0, opBase, func() error {
				_, _, err := sess[k].Compose()
				return err
			}); err != nil {
				return err
			}
			if err := measure(k, opBase, "final"); err != nil {
				return err
			}
			if err := sameRows("session "+st.name, rows[k], want[i*ecoSessions+k]); err != nil {
				return err
			}
		}
		return nil
	})
}

// ecoEngineReplay replays one stream through the engines' public calls and
// checks every measurement row against the session oracle's.
func ecoEngineReplay(st *ecoStream, tr *tracer, want []string) (*engineRun, *core.Result, error) {
	const op = 90_000_000
	d, plan, err := decode(st.in, tr, op)
	if err != nil {
		return nil, nil, err
	}
	er, err := newEngineRun(d, plan, ecoFlowConfig(), tr, op)
	if err != nil {
		return nil, nil, err
	}
	var rows []string
	measure := func(op int64) error {
		m, err := er.Measure(op)
		rows = append(rows, m.Canonical())
		return err
	}
	if err := measure(op); err != nil {
		return nil, nil, err
	}
	for b, batch := range st.batches {
		if err := er.apply(batch, op+int64(b)); err != nil {
			return nil, nil, fmt.Errorf("batch %d: %w", b, err)
		}
		if err := measure(op + int64(b)); err != nil {
			return nil, nil, err
		}
	}
	closing, err := er.ComposePass(op, nil)
	if err != nil {
		return nil, nil, err
	}
	if err := measure(op); err != nil {
		return nil, nil, err
	}
	return er, closing, sameRows("engine replay of session "+st.name, rows, want)
}
