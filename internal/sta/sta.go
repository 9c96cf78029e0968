// Package sta is a graph-based static timing analyzer over the netlist
// database. It uses the linear delay abstraction the paper's mapping step
// reasons with (§4.1): cell delay = intrinsic + driveResistance × load, and
// wire delay proportional to Manhattan pin distance. It produces per-pin
// arrival/required/slack, WNS/TNS, failing endpoint counts, propagated
// clock arrivals, per-register useful-skew assignment, and the
// timing-feasible move regions that placement compatibility (§2) is built
// from.
//
// The analyzer is built for repeated analysis inside an optimization loop:
// an Engine retains a CSR-backed timing graph with a cached levelized
// topological order across runs, and consults the netlist's edit epoch
// (netlist.Design.Epoch) to decide how much work a Run actually needs.
// Structural edits (data-net connectivity) trigger a full rebuild;
// parametric edits (moves, resizes, skews, clock-network changes) re-seed
// and re-propagate only the fanin/fanout cone of the touched pins. The
// forward-arrival and backward-required sweeps are levelized and fan out
// across a worker pool (SetWorkers). Because every propagation step is a
// pure max/min reduction, results are bit-identical for any worker count
// and for incremental versus full runs; the full rebuild remains both the
// fallback and the testing oracle.
//
// Only setup (max-delay) analysis is modeled; the paper does not involve
// hold fixing.
//
// Concurrency: an Engine mutates only itself during Run (worker goroutines
// write disjoint slice elements, joined before Run returns), and a Results
// snapshot is immutable once returned — no lazy caches, no package-level
// state. Concurrent readers of one Results (slacks, regions) need no
// locking; the parallel composition pipeline shares a single snapshot
// across all workers. Engines on the same Design must not run while the
// Design is being edited, and an Engine itself is not safe for concurrent
// use.
package sta

import (
	"math"

	"repro/internal/engine"
	"repro/internal/netlist"
)

// Results carries one timing analysis snapshot: the per-pin slacks and the
// endpoint statistics, which is all the flow's consumers read. It is a
// copy, so it stays valid across later runs. Arrival and required times
// and register clock arrivals are the engine's working state; read them
// through the Engine accessors (Arrival, Required, ClockArrival) before
// the next Run.
type Results struct {
	// Slack is addressed by netlist.PinID.
	Slack []float64

	// WNS is the worst endpoint slack (0 when nothing fails and min slack
	// is positive — we report the true minimum, which may be positive).
	WNS float64
	// TNS is the sum of negative endpoint slacks (a non-positive number).
	TNS float64
	// FailingEndpoints counts endpoints with negative slack.
	FailingEndpoints int
	// TotalEndpoints counts all checked endpoints.
	TotalEndpoints int
}

// PinSlack returns the slack at a pin (+Inf for unconstrained pins).
func (r *Results) PinSlack(id netlist.PinID) float64 {
	if int(id) >= len(r.Slack) {
		return math.Inf(1)
	}
	return r.Slack[id]
}

// RunStats counts how the engine satisfied its Run calls; used by tests
// and benchmarks to assert the incremental path actually engaged.
type RunStats struct {
	// FullBuilds counts runs that rebuilt the timing graph from scratch.
	FullBuilds int
	// IncrementalRuns counts runs served by cone re-propagation over the
	// retained graph.
	IncrementalRuns int
	// LastConePins is the number of pins re-evaluated by the most recent
	// incremental run (0 after a full build).
	LastConePins int
	// LastKind is "full" or "incremental" for the most recent run.
	LastKind string
}

// Engine runs timing analysis on a design. The engine may be re-run after
// netlist edits — it watches the design's edit epoch and reuses its cached
// timing graph whenever the edits since the previous run were
// non-structural. Per-register useful skews persist across runs and
// survive register merges only if re-applied by the caller.
type Engine struct {
	d       *netlist.Design
	skew    map[netlist.InstID]float64
	ideal   bool
	workers int

	// Cached analysis state, valid while `valid` is true.
	g          *timingGraph
	cursor     uint64 // design epoch the cache reflects
	timingSnap netlist.TimingSpec
	idealSnap  bool
	valid      bool

	arr, req, slack []float64
	seedArr         []float64 // launch seed per pin (negInf when unseeded)
	endReq          []float64 // endpoint required per pin (+Inf when none)
	endpoints       []int32   // endpoint pins in deterministic check order

	// Per-register clock state, indexed by InstID and stamped with the
	// clock pass (clkRun) that wrote it. clockArrivals fills clkArr for
	// the registers it lists in regs; effClk holds the effective (skewed)
	// arrival of every register timed by the pass stamped in effRun, so a
	// register timed by the latest run has effRun == clkRun. netArr/netRun
	// memoize clock-net arrivals within one pass, indexed by NetID.
	clkRun         uint32
	regs           []netlist.InstID
	clkArr, effClk []float64
	effRun         []uint32
	netArr         []float64
	netRun         []uint32

	// Scratch for incremental runs (generation-stamped marks).
	gen                    uint32
	pinMark, slackMark     []uint32
	regMark                []uint32
	dirtyRegs              []netlist.InstID
	fwdQueued, bwdQueued   []uint32
	fwdBuckets, bwdBuckets [][]int32
	slackDirty             []int32
	stats                  RunStats

	// Changed-slack register feed (see slacklog.go). prevSlack ping-pongs
	// with slack across full runs so the old values survive the rebuild
	// long enough to diff.
	slog      slackLog
	prevSlack []float64
}

// New returns an analyzer for the design.
func New(d *netlist.Design) *Engine {
	return &Engine{d: d, skew: map[netlist.InstID]float64{}}
}

// SetIdealClocks selects ideal-clock mode: every register's clock arrives
// at time zero (plus its useful skew), regardless of the clock network.
// This is how pre-CTS timing is analyzed in practice — before buffering,
// the raw clock nets are giant stars whose RC delay is meaningless.
// Propagated clocks (the default) follow buffers and gates.
func (e *Engine) SetIdealClocks(on bool) { e.ideal = on }

// SetWorkers bounds the worker pool the levelized arrival/required sweeps
// fan out across, following the composition pipeline's convention: 0 (the
// default) means one worker per available CPU, 1 the sequential path.
// Results are bit-identical for any setting.
func (e *Engine) SetWorkers(n int) { e.workers = n }

// SetSkew assigns a useful clock skew (ps, positive = later clock) to a
// register instance. The next Run picks the change up incrementally.
func (e *Engine) SetSkew(id netlist.InstID, ps float64) {
	if ps == 0 {
		delete(e.skew, id)
		return
	}
	e.skew[id] = ps
}

// Skew returns the useful skew currently assigned to a register.
func (e *Engine) Skew(id netlist.InstID) float64 { return e.skew[id] }

// ClearSkews removes all useful-skew assignments.
func (e *Engine) ClearSkews() { e.skew = map[netlist.InstID]float64{} }

// Invalidate drops the cached timing graph, forcing the next Run to
// rebuild from scratch. Needed only when the design was edited behind the
// netlist API's back (or for benchmarking the full path).
func (e *Engine) Invalidate() { e.valid = false }

// Stats reports how past Run calls were satisfied.
func (e *Engine) Stats() RunStats { return e.stats }

// Summary reports the unified retained-engine counters (engine.Retained):
// incremental runs are deltas, full graph builds are rebuilds.
func (e *Engine) Summary() engine.Summary {
	return engine.Summary{
		Updates:  e.stats.FullBuilds + e.stats.IncrementalRuns,
		Deltas:   e.stats.IncrementalRuns,
		Rebuilds: e.stats.FullBuilds,
		LastKind: e.stats.LastKind,
	}
}

var _ engine.Retained = (*Engine)(nil)

const negInf = math.MaxFloat64 * -1

// Run performs a timing analysis of the design's current state. The first
// run (and any run after a structural or untracked edit) builds the full
// graph; runs after parametric edits re-propagate only the affected cone.
// Either way the returned snapshot is bit-identical to a from-scratch
// analysis.
func (e *Engine) Run() (*Results, error) {
	d := e.d
	structural := !e.valid ||
		d.StructuralEpoch() > e.cursor ||
		d.PinSpace() != e.g.nPins ||
		d.Timing != e.timingSnap
	var touched []netlist.InstID
	if !structural {
		var complete bool
		touched, complete = d.TouchedSince(e.cursor)
		if !complete {
			structural = true
		} else if len(touched)*4 > d.NumInsts() {
			// A huge touched set re-propagates most of the graph anyway;
			// the plain full sweep is cheaper than worklist bookkeeping.
			structural = true
		}
	}

	runSeq := e.slog.seq + 1
	var err error
	if structural {
		err = e.runFull(runSeq)
	} else {
		err = e.runIncremental(touched, runSeq)
	}
	if err != nil {
		e.valid = false
		return nil, err
	}
	e.slog.seq = runSeq
	e.cursor = d.Epoch()
	e.timingSnap = d.Timing
	e.idealSnap = e.ideal
	e.valid = true
	return e.snapshot(), nil
}

// runFull rebuilds the graph, seeds and endpoint constraints, then runs
// the two levelized sweeps over everything.
func (e *Engine) runFull(seq uint64) error {
	d := e.d
	g, err := buildGraph(d)
	if err != nil {
		return err
	}
	e.g = g
	n := g.nPins
	// Keep the previous run's slacks alive for the changed-slack diff; the
	// buffers ping-pong so resizeFloats below can't clobber the old values.
	canDiff := e.valid
	if canDiff {
		e.prevSlack, e.slack = e.slack, e.prevSlack
	}
	e.arr = resizeFloats(e.arr, n)
	e.req = resizeFloats(e.req, n)
	e.slack = resizeFloats(e.slack, n)
	e.seedArr = resizeFloats(e.seedArr, n)
	e.endReq = resizeFloats(e.endReq, n)
	for i := 0; i < n; i++ {
		e.seedArr[i] = negInf
		e.endReq[i] = math.Inf(1)
	}

	if err := e.clockArrivals(); err != nil {
		return err
	}
	e.endpoints = e.endpoints[:0]
	period := d.Timing.ClockPeriod

	d.Insts(func(in *netlist.Inst) {
		switch in.Kind {
		case netlist.KindPort:
			if p := d.OutPin(in); p != nil && p.Net != netlist.NoID && !d.Net(p.Net).IsClock {
				e.seedArr[p.ID] = d.Timing.InputDelay
			}
			if p := d.FindPin(in, netlist.PinData, 0); p != nil && p.Dir == netlist.DirIn && p.Net != netlist.NoID {
				e.endReq[p.ID] = period - d.Timing.OutputDelay
				e.endpoints = append(e.endpoints, int32(p.ID))
			}
		case netlist.KindReg:
			eff := e.clkArr[in.ID] + e.skew[in.ID]
			e.effClk[in.ID] = eff
			e.effRun[in.ID] = e.clkRun
			e.seedRegister(in, eff, nil)
			for b := 0; b < in.Bits(); b++ {
				dp := d.DPin(in, b)
				if dp == nil || dp.Net == netlist.NoID {
					continue
				}
				e.endReq[dp.ID] = eff + period - in.RegCell.Setup
				e.endpoints = append(e.endpoints, int32(dp.ID))
			}
		}
	})

	workers := e.workers
	copy(e.arr, e.seedArr)
	g.forward(e.arr, e.seedArr, workers)
	copy(e.req, e.endReq)
	g.backward(e.req, e.endReq, workers)
	parallelChunks(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e.slack[i] = slackOf(e.arr[i], e.req[i])
		}
	})
	if canDiff {
		e.diffSlackRegs(e.prevSlack, seq)
	} else {
		e.slog.reset(seq)
	}
	e.stats.FullBuilds++
	e.stats.LastConePins = 0
	e.stats.LastKind = "full"
	return nil
}

// seedRegister writes the launch seeds (clk→Q arrival) for every connected
// Q pin of the register. When fwd is non-nil (incremental runs), pins
// whose seed changed are pushed onto the forward worklist.
func (e *Engine) seedRegister(in *netlist.Inst, eff float64, fwd *worklist) {
	d := e.d
	cell := in.RegCell
	for b := 0; b < cell.Bits; b++ {
		q := d.QPin(in, b)
		if q == nil || q.Net == netlist.NoID {
			continue
		}
		load := d.NetLoadCap(d.Net(q.Net))
		seed := eff + cell.Intrinsic + cell.DriveRes*load
		if e.seedArr[q.ID] != seed {
			e.seedArr[q.ID] = seed
			if fwd != nil {
				fwd.push(int32(q.ID))
			}
		}
	}
}

func slackOf(arr, req float64) float64 {
	if arr == negInf || math.IsInf(req, 1) {
		return math.Inf(1)
	}
	return req - arr
}

// snapshot assembles an immutable Results from the engine's working state,
// recomputing the endpoint statistics in the deterministic endpoint order
// (the sum in TNS makes the order observable in the last bits).
func (e *Engine) snapshot() *Results {
	res := &Results{
		Slack: append([]float64(nil), e.slack...),
		WNS:   math.Inf(1),
	}
	for _, pin := range e.endpoints {
		if e.arr[pin] == negInf {
			continue // unreached endpoint: unconstrained path
		}
		s := e.slack[pin]
		if math.IsInf(s, 1) {
			continue
		}
		res.TotalEndpoints++
		if s < res.WNS {
			res.WNS = s
		}
		if s < 0 {
			res.TNS += s
			res.FailingEndpoints++
		}
	}
	if res.TotalEndpoints == 0 {
		res.WNS = 0
	}
	return res
}

// Arrival returns the latest run's arrival time at a pin (-MaxFloat64 for
// pins no launch reaches). Like Required and ClockArrival it reads the
// engine's working state, which the next Run overwrites; the pin must
// exist in the analyzed design.
func (e *Engine) Arrival(id netlist.PinID) float64 { return e.arr[id] }

// Required returns the latest run's required time at a pin (+Inf for pins
// no endpoint constrains).
func (e *Engine) Required(id netlist.PinID) float64 { return e.req[id] }

// ClockArrival returns the latest run's propagated clock arrival,
// including useful skew, at a register. ok is false for instances the run
// did not time as registers.
func (e *Engine) ClockArrival(id netlist.InstID) (arr float64, ok bool) {
	if int(id) >= len(e.effRun) || e.effRun[id] != e.clkRun {
		return 0, false
	}
	return e.effClk[id], true
}

func resizeFloats(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}

// grow extends s to at least n elements, keeping its contents.
func grow[T any](s []T, n int) []T {
	if len(s) < n {
		s = append(s, make([]T, n-len(s))...)
	}
	return s
}

// RegDSlack returns the worst slack across the register's connected D pins
// (+Inf when none are constrained).
func RegDSlack(d *netlist.Design, r *Results, in *netlist.Inst) float64 {
	worst := math.Inf(1)
	for b := 0; b < in.Bits(); b++ {
		p := d.DPin(in, b)
		if p == nil || p.Net == netlist.NoID {
			continue
		}
		if s := r.PinSlack(p.ID); s < worst {
			worst = s
		}
	}
	return worst
}

// RegQSlack returns the worst slack across the register's connected Q pins
// (+Inf when none are constrained).
func RegQSlack(d *netlist.Design, r *Results, in *netlist.Inst) float64 {
	worst := math.Inf(1)
	for b := 0; b < in.Bits(); b++ {
		p := d.QPin(in, b)
		if p == nil || p.Net == netlist.NoID {
			continue
		}
		if s := r.PinSlack(p.ID); s < worst {
			worst = s
		}
	}
	return worst
}

// AssignUsefulSkew computes and applies the local useful-skew move for the
// given registers: the skew that balances each register's D-side and Q-side
// slacks, clamped to ±maxSkew. It returns the number of registers whose
// worst slack improved. The paper applies this to newly composed MBRs
// (Fig. 4) — their constituents were timing compatible, so one shared skew
// helps all bits.
func (e *Engine) AssignUsefulSkew(regs []*netlist.Inst, res *Results, maxSkew float64) int {
	improved := 0
	for _, in := range regs {
		ds := RegDSlack(e.d, res, in)
		qs := RegQSlack(e.d, res, in)
		if math.IsInf(ds, 1) || math.IsInf(qs, 1) {
			continue
		}
		// min(ds+s, qs-s) is maximized at s = (qs-ds)/2.
		s := (qs - ds) / 2
		if s > maxSkew {
			s = maxSkew
		}
		if s < -maxSkew {
			s = -maxSkew
		}
		before := math.Min(ds, qs)
		after := math.Min(ds+s, qs-s)
		if after > before+1e-12 {
			e.SetSkew(in.ID, e.skew[in.ID]+s)
			improved++
		}
	}
	return improved
}
