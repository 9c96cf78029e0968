// Package compatgraph retains the register compatibility graph (§2) across
// flow passes and maintains it by delta instead of rebuild. The engine keeps
// the current node set (live composable registers with their cached RegInfo
// and static signatures), the adjacency with a per-edge test mask, and
// per-node reason bitmasks recording which of the four compatibility tests
// rejected candidate pairs at that node. After each pass it consumes the
// netlist epoch log plus the fresh STA results to remove merged/deleted
// nodes, insert new MBR nodes, and re-test only pairs with at least one
// changed endpoint — candidate pairs come from a geometric grid over the
// move regions, not an all-pairs scan. On structural overflow (or when too
// much of the design changed for a delta to pay off) it falls back to a
// full sweep that tests only pairs sharing a functional/scan signature
// bucket; its graph equals compat.Build's all-pairs loop, the package's
// correctness oracle.
//
// Exactness strategy: a node's cached data (slacks, feasible region, clock
// position, signature) is a pure function of that register's own pins'
// slacks, its own geometry and attributes, and the positions and electrical
// parameters of the other instances on its D/Q data nets. With a timing
// feed attached (SetTimingFeed), the node phase recomputes only the
// registers named dirty by those dependencies — the STA engine's
// changed-slack ring for the timing inputs, the netlist touched ring plus a
// one-hop data-net closure for the geometric ones — and value-compares
// against the cache, so the maintained node set is exactly what a linear
// recompute would produce. Without a feed (or when either ring overflowed)
// the node phase falls back to the PR-3 linear sweep over every register,
// which remains the oracle. The edge phase is unchanged: pairs are
// re-tested only when an endpoint's data differs from the cache, with the
// full pairwise sweep as the overflow fallback, so the maintained graph is
// exactly the graph Build would produce at every step.
package compatgraph

import (
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/compat"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/partition"
	"repro/internal/scan"
	"repro/internal/sta"
)

// TimingFeed is the dirty-node feed the node phase consumes: the STA
// engine's changed-slack register ring (sta.Engine satisfies it). The
// Results passed to Update must come from the feed's most recent Run;
// RegsWithChangedSlack must report every register whose D/Q pin slacks
// changed in runs after the cursor, or incomplete.
type TimingFeed interface {
	SlackSeq() uint64
	RegsWithChangedSlack(cursor uint64) ([]netlist.InstID, bool)
}

// Options tunes the engine.
type Options struct {
	// Compat are the edge rules, shared with compat.Build. SlackClamp
	// defaults to the design's clock period, as in Build.
	Compat compat.Options
	// Workers bounds the fan-out of pairwise re-tests (0 = GOMAXPROCS,
	// 1 = sequential). The result is byte-identical at any worker count.
	Workers int
	// MaxDeltaFrac is the changed-node fraction above which Update falls
	// back to the full pairwise sweep (default 0.25: past that point the
	// neighborhood queries cost more than the dense row sweep saves).
	MaxDeltaFrac float64
}

// UpdateKind names the decision an Update took, for stats and the CLI.
type UpdateKind string

const (
	// KindInitial: first Update after New or Invalidate — full sweep.
	KindInitial UpdateKind = "initial"
	// KindOverflow: the bounded touched-log overflowed (bulk structural
	// churn, e.g. a CTS rebuild) — full sweep.
	KindOverflow UpdateKind = "touched-overflow"
	// KindTimingChanged: the design's TimingSpec changed, invalidating
	// every clamped slack and region — full sweep.
	KindTimingChanged UpdateKind = "timing-changed"
	// KindDirtyOverflow: more than MaxDeltaFrac of the nodes changed —
	// full sweep.
	KindDirtyOverflow UpdateKind = "dirty-overflow"
	// KindDelta: neighborhood-limited re-test of changed nodes only.
	KindDelta UpdateKind = "delta"
)

// Stats describes the engine's work; Last* fields cover the latest Update.
type Stats struct {
	Updates  int
	Rebuilds int // full pairwise sweeps (any non-delta kind)
	Deltas   int
	// TouchedOverflows counts the rebuilds forced by an overflowed
	// touched ring (KindOverflow) — the failure mode edit-class scoping
	// exists to prevent; bulk edits in other classes (clock-tree
	// maintenance) must never show up here.
	TouchedOverflows int

	// NodeDeltas counts updates whose node phase recomputed only the
	// dirty-candidate registers (vs the linear sweep over all of them).
	NodeDeltas int

	LastKind         UpdateKind
	LastNodes        int
	LastEdges        int
	LastNodesAdded   int
	LastNodesRemoved int
	LastNodesDirty   int // changed nodes re-tested by the last delta
	// LastPairsTested counts the pairs the last Update decided: a full
	// sweep counts all n(n−1)/2, including the cross-bucket pairs it
	// rejects from their signatures without running the pair test.
	LastPairsTested   int
	LastEdgesRetested int // previously existing edges among them
	// LastRejectsByTest counts pairs rejected by each test (functional,
	// scan, placement, timing) in the last Update's evaluations.
	LastRejectsByTest [4]int
	// LastNodePhase is "delta" or "linear" for the last Update's node
	// phase; LastNodesVisited counts the registers whose eligibility,
	// info and signature it actually recomputed.
	LastNodePhase    string
	LastNodesVisited int

	// Per-phase wall time, accumulated and for the last Update. Excluded
	// from determinism comparisons (wall time is not reproducible).
	NodePhaseNS, EdgePhaseNS         int64
	LastNodePhaseNS, LastEdgePhaseNS int64

	// LastComponents / LastComponentsReused describe the most recent
	// Subgraphs call: connected components seen and how many reused a
	// cached geometric split (clean components).
	LastComponents       int
	LastComponentsReused int
}

// node is the retained per-register state.
type node struct {
	inst *netlist.Inst
	info *compat.RegInfo
	sig  compat.StaticSig
	// nbr maps neighbor instance → the mask of tests evaluated when the
	// edge was last confirmed (TestAll when fully tested; the static bits
	// are carried from cache when only dynamics were re-run).
	nbr map[netlist.InstID]compat.TestMask
	// bound accumulates which tests rejected candidate pairs at this node
	// (the per-node reason bitmask).
	bound compat.TestMask
}

// Engine is the retained incremental compatibility graph. Not safe for
// concurrent use; an Update must not run while the design is being edited.
type Engine struct {
	d    *netlist.Design
	plan *scan.Plan
	opts Options

	valid      bool
	cursor     uint64
	timingSnap netlist.TimingSpec
	allowCross bool

	// Dirty-node feed for the delta node phase (nil = always linear).
	feed       TimingFeed
	feedCursor uint64

	nodes    map[netlist.InstID]*node
	excluded map[netlist.InstID]compat.NotComposableReason

	part  *partition.Cache
	graph *compat.Graph // last materialized graph
	// order is the node set in ascending instance-ID order (the Build
	// order); infosArr/sigsArr/ordOf are kept aligned with it so the delta
	// node phase can patch dirty slots instead of re-deriving every node.
	order    []netlist.InstID
	infosArr []*compat.RegInfo
	sigsArr  []compat.StaticSig
	ordOf    map[netlist.InstID]int
	stats    Stats
	// lastDirty names the registers whose node data (info or signature)
	// changed in the last Update — the dirty-subgraph feed SubgraphsHinted
	// folds into its per-subgraph clean hints.
	lastDirty map[netlist.InstID]bool
}

// New creates an engine over a design and scan plan (plan may be nil). The
// first Update performs a full sweep.
func New(d *netlist.Design, plan *scan.Plan, opts Options) *Engine {
	if opts.MaxDeltaFrac <= 0 {
		opts.MaxDeltaFrac = 0.25
	}
	return &Engine{d: d, plan: plan, opts: opts, part: partition.NewCache()}
}

// Invalidate forces the next Update to take the full-sweep path.
func (e *Engine) Invalidate() { e.valid = false }

// SetTimingFeed attaches the dirty-node feed that lets the node phase run
// by delta. After this call, every Update's res argument must be the
// snapshot of the feed engine's most recent Run; with no feed (the
// default) the node phase is recomputed linearly every Update.
func (e *Engine) SetTimingFeed(f TimingFeed) {
	e.feed = f
	if f != nil {
		// Anything before this point was never observed through the feed.
		e.feedCursor = 0
		e.valid = false
	}
}

// SetWorkers bounds the fan-out of pairwise re-tests (engine.Retained
// convention: results identical for any value, 1 forces sequential).
func (e *Engine) SetWorkers(n int) { e.opts.Workers = n }

// Stats returns the accumulated counters.
func (e *Engine) Stats() Stats { return e.stats }

// Summary reports the unified retained-engine counters (engine.Retained).
func (e *Engine) Summary() engine.Summary {
	return engine.Summary{
		Updates:  e.stats.Updates,
		Deltas:   e.stats.Deltas,
		Rebuilds: e.stats.Rebuilds,
		LastKind: string(e.stats.LastKind),
	}
}

var _ engine.Retained = (*Engine)(nil)

// Graph returns the graph materialized by the last Update (nil before the
// first one).
func (e *Engine) Graph() *compat.Graph { return e.graph }

func (e *Engine) workers() int {
	w := e.opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return w
}

func (e *Engine) compatOpts() compat.Options {
	o := e.opts.Compat
	if o.SlackClamp == 0 {
		o.SlackClamp = e.d.Timing.ClockPeriod
	}
	return o
}

// nodeState is the node phase's product: the current node set with its
// data, diffed against the retained cache.
type nodeState struct {
	order []netlist.InstID
	infos []*compat.RegInfo
	sigs  []compat.StaticSig

	isDirty, sDirty []bool
	dirtyOrd        []int
	added           int
	removedIDs      []netlist.InstID

	// excluded is the full fresh exclusion map on the linear path; nil on
	// the delta path, which patches e.excluded in place.
	excluded map[netlist.InstID]compat.NotComposableReason
	visited  int // registers whose eligibility/info/sig were recomputed
}

// Update brings the retained graph up to date with the design and the given
// fresh STA results, and materializes it. The returned graph is exactly the
// graph compat.Build would produce on the same inputs, independent of the
// worker count and of whether the delta or the full path ran.
func (e *Engine) Update(res *sta.Results) *compat.Graph {
	d := e.d
	opts := e.compatOpts()
	allowCross := e.plan == nil || e.plan.AllowCrossChain

	touched, complete := d.TouchedSince(e.cursor)
	kind := KindDelta
	switch {
	case !e.valid:
		kind = KindInitial
	case !complete:
		kind = KindOverflow
	case d.Timing != e.timingSnap || allowCross != e.allowCross:
		kind = KindTimingChanged
	}

	// Node phase: by delta over the dirty candidates when the feeds allow
	// it, else the linear sweep over every register (fallback and oracle).
	nodeStart := time.Now()
	nodePhase := "linear"
	var ns nodeState
	if kind == KindDelta && e.feed != nil {
		if slackRegs, ok := e.feed.RegsWithChangedSlack(e.feedCursor); ok {
			nodePhase = "delta"
			ns = e.nodePhaseDelta(res, opts, touched, slackRegs)
		}
	}
	if nodePhase == "linear" {
		ns = e.nodePhaseLinear(res, opts)
	}
	nodeNS := time.Since(nodeStart).Nanoseconds()

	removed := len(ns.removedIDs)
	if kind == KindDelta &&
		float64(len(ns.dirtyOrd)+removed) > e.opts.MaxDeltaFrac*float64(len(ns.order)) {
		kind = KindDirtyOverflow
	}

	st := &e.stats
	st.Updates++
	st.LastKind = kind
	if kind == KindOverflow {
		st.TouchedOverflows++
	}
	if nodePhase == "delta" {
		st.NodeDeltas++
	}
	st.LastNodePhase = nodePhase
	st.LastNodesVisited = ns.visited
	st.LastNodesAdded = ns.added
	st.LastNodesRemoved = removed
	st.LastNodesDirty = len(ns.dirtyOrd)
	st.LastPairsTested = 0
	st.LastEdgesRetested = 0
	st.LastRejectsByTest = [4]int{}

	edgeStart := time.Now()
	if kind == KindDelta {
		st.Deltas++
		e.applyDelta(opts, allowCross, &ns)
	} else {
		st.Rebuilds++
		e.fullSweep(opts, allowCross, ns.order, ns.infos, ns.sigs)
	}
	edgeNS := time.Since(edgeStart).Nanoseconds()

	if ns.excluded != nil {
		e.excluded = ns.excluded
	}
	e.lastDirty = make(map[netlist.InstID]bool, len(ns.dirtyOrd))
	for _, i := range ns.dirtyOrd {
		e.lastDirty[ns.order[i]] = true
	}
	e.setOrder(ns.order, ns.infos, ns.sigs)
	e.valid = true
	e.cursor = d.Epoch()
	e.timingSnap = d.Timing
	e.allowCross = allowCross
	if e.feed != nil {
		e.feedCursor = e.feed.SlackSeq()
	}
	e.graph = e.materialize(opts)
	st.LastNodes = len(ns.order)
	st.LastEdges = e.graph.NumEdges()
	st.LastNodePhaseNS, st.LastEdgePhaseNS = nodeNS, edgeNS
	st.NodePhaseNS += nodeNS
	st.EdgePhaseNS += edgeNS
	return e.graph
}

// setOrder installs the node ordering and its aligned data arrays,
// rebuilding the ordinal index only when the ordering actually changed.
func (e *Engine) setOrder(order []netlist.InstID, infos []*compat.RegInfo, sigs []compat.StaticSig) {
	same := e.ordOf != nil && len(order) == len(e.order)
	if same {
		for i, id := range order {
			if e.order[i] != id {
				same = false
				break
			}
		}
	}
	e.order, e.infosArr, e.sigsArr = order, infos, sigs
	if same {
		return
	}
	e.ordOf = make(map[netlist.InstID]int, len(order))
	for i, id := range order {
		e.ordOf[id] = i
	}
}

// nodePhaseLinear recomputes every live register's eligibility, info and
// signature and diffs them against the retained cache — the PR-3 exactness
// anchor, now the fallback path and the delta node phase's oracle.
func (e *Engine) nodePhaseLinear(res *sta.Results, opts compat.Options) nodeState {
	d := e.d
	regs := d.Registers()
	ns := nodeState{
		order:    make([]netlist.InstID, 0, len(regs)),
		infos:    make([]*compat.RegInfo, 0, len(regs)),
		sigs:     make([]compat.StaticSig, 0, len(regs)),
		excluded: make(map[netlist.InstID]compat.NotComposableReason),
		visited:  len(regs),
	}
	for _, in := range regs {
		if reason, bad := compat.Exclusion(d, in); bad {
			ns.excluded[in.ID] = reason
			continue
		}
		ns.order = append(ns.order, in.ID)
		ns.infos = append(ns.infos, compat.NewRegInfo(d, res, in, opts))
		ns.sigs = append(ns.sigs, compat.SigOf(d, e.plan, in))
	}

	ns.isDirty = make([]bool, len(ns.order))
	ns.sDirty = make([]bool, len(ns.order))
	seen := make(map[netlist.InstID]bool, len(ns.order))
	for i, id := range ns.order {
		seen[id] = true
		old, ok := e.nodes[id]
		if ok && old.sig == ns.sigs[i] && *old.info == *ns.infos[i] {
			continue // clean: every test input unchanged
		}
		if !ok {
			ns.added++
		}
		ns.isDirty[i] = true
		ns.sDirty[i] = !ok || old.sig != ns.sigs[i]
		ns.dirtyOrd = append(ns.dirtyOrd, i)
	}
	for id := range e.nodes {
		if !seen[id] {
			ns.removedIDs = append(ns.removedIDs, id)
		}
	}
	return ns
}

// nodePhaseDelta recomputes only the dirty-candidate registers: those whose
// slacks the STA feed re-propagated, plus the touched instances and their
// one-hop data-net closure (a register's region is bounded by the positions
// and drive strengths of the other instances on its D/Q nets; membership
// changes are force-touched by the netlist itself — see noteNetMembers).
// Every other node's cached data is proven unchanged by that dependency
// argument, so the result equals nodePhaseLinear's.
func (e *Engine) nodePhaseDelta(res *sta.Results, opts compat.Options,
	touched, slackRegs []netlist.InstID) nodeState {

	d := e.d
	cand := make(map[netlist.InstID]bool, len(touched)+len(slackRegs))
	for _, id := range slackRegs {
		cand[id] = true
	}
	// A register's RegInfo reads only the nets of its own D/Q pins
	// (FeasibleRegion), so a touched instance X dirties exactly the
	// registers attached via a PinData/PinOut pin to one of X's nets —
	// the same filter noteNetMembers applies. Registers on X's nets via
	// scan/reset/enable pins are unaffected: broadcast control nets would
	// otherwise pull the whole design into the candidate set.
	addMember := func(pid netlist.PinID) {
		p := d.Pin(pid)
		if p.Kind != netlist.PinData && p.Kind != netlist.PinOut {
			return
		}
		if in := d.Inst(p.Inst); in != nil && in.Kind == netlist.KindReg {
			cand[p.Inst] = true
		}
	}
	for _, id := range touched {
		cand[id] = true
		in := d.Inst(id)
		if in == nil {
			continue // removed; its former neighbors were force-touched
		}
		for _, pid := range in.Pins {
			p := d.Pin(pid)
			if p.Net == netlist.NoID {
				continue
			}
			nt := d.Net(p.Net)
			if nt == nil || nt.IsClock {
				continue // clock topology never feeds node data (root-resolved)
			}
			if nt.Driver != netlist.NoID {
				addMember(nt.Driver)
			}
			for _, s := range nt.Sinks {
				addMember(s)
			}
		}
	}

	// Classify each candidate against the cache. e.excluded is patched in
	// place; membership changes are collected for the splice below.
	type fresh struct {
		info *compat.RegInfo
		sig  compat.StaticSig
	}
	news := make(map[netlist.InstID]fresh)
	var ns nodeState
	removedSet := make(map[netlist.InstID]bool)
	var addedIDs []netlist.InstID
	dirtySet := make(map[netlist.InstID]bool)
	for id := range cand {
		in := d.Inst(id)
		_, wasNode := e.nodes[id]
		if in == nil || in.Kind != netlist.KindReg {
			if wasNode {
				removedSet[id] = true
				ns.removedIDs = append(ns.removedIDs, id)
			}
			delete(e.excluded, id)
			continue
		}
		ns.visited++
		if reason, bad := compat.Exclusion(d, in); bad {
			if wasNode {
				removedSet[id] = true
				ns.removedIDs = append(ns.removedIDs, id)
			}
			e.excluded[id] = reason
			continue
		}
		delete(e.excluded, id)
		info := compat.NewRegInfo(d, res, in, opts)
		sig := compat.SigOf(d, e.plan, in)
		if !wasNode {
			ns.added++
			addedIDs = append(addedIDs, id)
			news[id] = fresh{info, sig}
			dirtySet[id] = true
			continue
		}
		old := e.nodes[id]
		if old.sig == sig && *old.info == *info {
			continue // clean: every test input unchanged
		}
		news[id] = fresh{info, sig}
		dirtySet[id] = true
	}

	// Assemble the new ordering and aligned arrays, tracking the dirty
	// ordinals as we go. With unchanged membership the retained arrays are
	// patched in place — O(dirty) via the retained ordinal index — and
	// otherwise the surviving slots and the (sorted) additions are
	// merge-spliced in one linear pass.
	if len(removedSet) == 0 && len(addedIDs) == 0 {
		ns.order = e.order
		ns.infos = e.infosArr
		ns.sigs = e.sigsArr
		for id := range dirtySet {
			ns.dirtyOrd = append(ns.dirtyOrd, e.ordOf[id])
		}
	} else {
		slices.Sort(addedIDs)
		n := len(e.order) - len(removedSet) + len(addedIDs)
		ns.order = make([]netlist.InstID, 0, n)
		ns.infos = make([]*compat.RegInfo, 0, n)
		ns.sigs = make([]compat.StaticSig, 0, n)
		ai := 0
		appendOne := func(id netlist.InstID, info *compat.RegInfo, sig compat.StaticSig) {
			if dirtySet[id] {
				ns.dirtyOrd = append(ns.dirtyOrd, len(ns.order))
			}
			ns.order = append(ns.order, id)
			ns.infos = append(ns.infos, info)
			ns.sigs = append(ns.sigs, sig)
		}
		appendAdded := func(limit netlist.InstID, all bool) {
			for ai < len(addedIDs) && (all || addedIDs[ai] < limit) {
				id := addedIDs[ai]
				f := news[id]
				appendOne(id, f.info, f.sig)
				ai++
			}
		}
		for i, id := range e.order {
			if removedSet[id] {
				continue
			}
			appendAdded(id, false)
			appendOne(id, e.infosArr[i], e.sigsArr[i])
		}
		appendAdded(0, true)
	}
	sort.Ints(ns.dirtyOrd)

	// Patch dirty slots and derive the ordinal-indexed dirty views.
	ns.isDirty = make([]bool, len(ns.order))
	ns.sDirty = make([]bool, len(ns.order))
	for _, i := range ns.dirtyOrd {
		id := ns.order[i]
		f := news[id]
		old, wasNode := e.nodes[id]
		ns.infos[i] = f.info
		ns.sigs[i] = f.sig
		ns.isDirty[i] = true
		ns.sDirty[i] = !wasNode || old.sig != f.sig
	}
	return ns
}

// Subgraphs decomposes the current graph exactly like partition.Decompose
// (connected components, then geometric splits of oversized ones) but
// reuses cached splits for components untouched since the previous call.
func (e *Engine) Subgraphs(maxNodes int) [][]int {
	g := e.graph
	out := e.part.Decompose(len(g.Regs), g.Adj,
		func(i int) geom.Point { return g.Regs[i].ClockPos },
		maxNodes,
		func(i int) int64 { return int64(g.Regs[i].Inst.ID) })
	ps := e.part.Stats()
	e.stats.LastComponents = ps.Components
	e.stats.LastComponentsReused = ps.Reused
	return out
}

// SubgraphsHinted is Subgraphs plus a per-subgraph clean hint: true when
// the subgraph's component replayed from the partition cache (members,
// order and clock positions unchanged) and none of its members' node data
// changed in the last Update. The hints are advisory — the retained
// compose engine validates every subgraph by exact signature and only uses
// them for accounting — because a member's blocker environment or scan
// context can change without its own node data changing.
func (e *Engine) SubgraphsHinted(maxNodes int) ([][]int, []bool) {
	out := e.Subgraphs(maxNodes)
	reused := e.part.LastPartsReused()
	clean := make([]bool, len(out))
	for i, part := range out {
		if i >= len(reused) || !reused[i] {
			continue
		}
		ok := true
		for _, n := range part {
			if e.lastDirty[e.graph.Regs[n].Inst.ID] {
				ok = false
				break
			}
		}
		clean[i] = ok
	}
	return out, clean
}

// sweepKeys returns the two signature projections fullSweep buckets by:
// fn holds exactly the fields the functional test compares, and scan adds
// the scan test's cross-chain fields (scanned, partition). Chain and
// ordering are zeroed, so the remaining same-bucket scan condition (same
// chain inside ordered sections or without cross-chain moves) is left to
// compat.PairTest.
func sweepKeys(s compat.StaticSig) (fn, scan compat.StaticSig) {
	s.Chain, s.Ordered = 0, false
	scan = s
	s.Scanned, s.Partition = false, 0
	return s, scan
}

// fullSweep rebuilds the whole adjacency with the result of compat.Build's
// all-pairs double loop, but runs compat.PairTest only on pairs that share
// a scan bucket: every other pair fails the functional test (different
// functional key) or the scan test (same functional key, different
// scanned/partition) without looking at the pair. Those rejects are
// counted from bucket sizes, so Stats and BoundMask read exactly as if all
// n(n−1)/2 pairs had been tested. In-bucket rows run parallel across
// workers.
func (e *Engine) fullSweep(opts compat.Options, allowCross bool,
	order []netlist.InstID, infos []*compat.RegInfo, sigs []compat.StaticSig) {

	n := len(order)
	// Group ordinals (ascending) by functional key and by scan bucket,
	// recording each node's group, bucket and rank within both.
	type slot struct{ fn, fnRank, bucket, rank int32 }
	at := make([]slot, n)
	fnOf := make(map[compat.StaticSig]int32)
	bucketOf := make(map[compat.StaticSig]int32)
	var fnSize []int32
	var buckets [][]int32
	for i, sig := range sigs {
		fk, bk := sweepKeys(sig)
		f, ok := fnOf[fk]
		if !ok {
			f = int32(len(fnSize))
			fnOf[fk] = f
			fnSize = append(fnSize, 0)
		}
		b, ok := bucketOf[bk]
		if !ok {
			b = int32(len(buckets))
			bucketOf[bk] = b
			buckets = append(buckets, nil)
		}
		at[i] = slot{fn: f, fnRank: fnSize[f], bucket: b, rank: int32(len(buckets[b]))}
		fnSize[f]++
		buckets[b] = append(buckets[b], int32(i))
	}

	rows := make([][]int32, n)   // per-row: ordinals j>i that passed
	bound := make([]int32, n)    // per-row first-failing accumulation mask
	rejects := make([][4]int, n) // per-row reject counts
	workers := e.workers()
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Stride over rows: row i costs its bucket's tail, striding
			// balances.
			for i := w; i < n; i += workers {
				a := at[i]
				members := buckets[a.bucket]
				// Later ordinals: all, in i's functional group, in its bucket.
				after := int32(n - 1 - i)
				afterFn := fnSize[a.fn] - 1 - a.fnRank
				afterBucket := int32(len(members)) - 1 - a.rank
				if after > afterFn {
					bound[i] |= int32(compat.TestFunctional)
					rejects[i][testIndex(compat.TestFunctional)] += int(after - afterFn)
				}
				if afterFn > afterBucket {
					bound[i] |= int32(compat.TestScan)
					rejects[i][testIndex(compat.TestScan)] += int(afterFn - afterBucket)
				}
				var row []int32
				for _, j := range members[a.rank+1:] {
					mask, ok := compat.PairTest(opts, infos[i], infos[j], sigs[i], sigs[j], allowCross)
					if ok {
						row = append(row, j)
					} else {
						ff := firstFailing(mask)
						bound[i] |= int32(ff)
						rejects[i][testIndex(ff)]++
					}
				}
				rows[i] = row
			}
		}(w)
	}
	wg.Wait()

	nodes := make(map[netlist.InstID]*node, n)
	for i, id := range order {
		nodes[id] = &node{
			inst: infos[i].Inst,
			info: infos[i],
			sig:  sigs[i],
			nbr:  map[netlist.InstID]compat.TestMask{},
		}
	}
	st := &e.stats
	st.LastPairsTested += n * (n - 1) / 2
	for i := range rows {
		for t := 0; t < 4; t++ {
			st.LastRejectsByTest[t] += rejects[i][t]
		}
		a := nodes[order[i]]
		a.bound = compat.TestMask(bound[i])
		for _, j := range rows[i] {
			b := nodes[order[j]]
			a.nbr[order[j]] = compat.TestAll
			b.nbr[order[i]] = compat.TestAll
		}
	}
	e.nodes = nodes
}

// deltaResult is one worker's verdicts for one dirty node's candidates.
type deltaResult struct {
	cand  []int32 // candidate ordinals, ascending
	mask  []compat.TestMask
	ok    []bool
	retst []bool // pair was a previously confirmed edge
	bound compat.TestMask
}

// applyDelta re-tests only pairs with a changed endpoint, finding candidate
// partners through a geometric grid over the move regions.
func (e *Engine) applyDelta(opts compat.Options, allowCross bool, ns *nodeState) {
	order, infos, sigs := ns.order, ns.infos, ns.sigs
	isDirty, sDirty, dirtyOrd := ns.isDirty, ns.sDirty, ns.dirtyOrd
	if len(dirtyOrd) == 0 && len(ns.removedIDs) == 0 {
		return // nothing changed: the retained adjacency is already exact
	}

	n := len(order)
	// Neighborhood index: every node's region, bucketed over the core.
	// Cell size tracks the average region: a finer grid would file every
	// slack-generous region into hundreds of cells and make queries visit
	// them all, degrading far below a plain O(n) candidate scan. With
	// near-core-sized regions the dims collapse to 1x1, which IS that scan.
	var sumW, sumH int64
	for _, info := range infos {
		sumW += info.Region.Hi.X - info.Region.Lo.X
		sumH += info.Region.Hi.Y - info.Region.Lo.Y
	}
	dimCap := int(math.Ceil(math.Sqrt(float64(n))))
	if dimCap > 64 {
		dimCap = 64
	}
	grid := geom.NewGrid(e.d.Core,
		boundedDim(e.d.Core.Hi.X-e.d.Core.Lo.X, sumW, n, dimCap),
		boundedDim(e.d.Core.Hi.Y-e.d.Core.Lo.Y, sumH, n, dimCap))
	for i, info := range infos {
		grid.InsertRect(int32(i), info.Region)
	}

	// Compute phase (read-only on the retained maps): each dirty node
	// gathers overlap candidates and tests the pairs it owns — (dirty,
	// clean) always, (dirty, dirty) only from the lower ordinal.
	results := make([]deltaResult, len(dirtyOrd))
	workers := e.workers()
	if workers > len(dirtyOrd) {
		workers = len(dirtyOrd)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stamp := make([]int32, n)
			for k := range stamp {
				stamp[k] = -1
			}
			for di := w; di < len(dirtyOrd); di += workers {
				i := dirtyOrd[di]
				r := &results[di]
				grid.QueryRect(infos[i].Region, func(j int32) {
					if int(j) == i || stamp[j] == int32(di) {
						return
					}
					stamp[j] = int32(di)
					if isDirty[j] && int(j) < i {
						return // owned by the lower dirty ordinal
					}
					r.cand = append(r.cand, j)
				})
				slices.Sort(r.cand)
				oldA := e.nodes[order[i]]
				for _, j := range r.cand {
					var hadEdge bool
					if oldA != nil {
						_, hadEdge = oldA.nbr[order[j]]
					}
					var mask compat.TestMask
					var ok bool
					if hadEdge && !sDirty[i] && !sDirty[j] {
						// Statics passed when the edge was confirmed and
						// neither signature changed: re-run dynamics only.
						mask, ok = compat.PairTestDynamic(opts, infos[i], infos[int(j)])
						mask |= compat.TestStatic
					} else {
						mask, ok = compat.PairTest(opts, infos[i], infos[int(j)], sigs[i], sigs[int(j)], allowCross)
					}
					r.mask = append(r.mask, mask)
					r.ok = append(r.ok, ok)
					r.retst = append(r.retst, hadEdge)
					if !ok {
						r.bound |= firstFailing(mask)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// Merge phase (sequential): drop edges of removed and dirty nodes,
	// refresh the dirty payloads (clean nodes already hold value-identical
	// data), then add the confirmed pairs.
	for _, id := range ns.removedIDs {
		nd, ok := e.nodes[id]
		if !ok {
			continue
		}
		for v := range nd.nbr {
			delete(e.nodes[v].nbr, id)
		}
		delete(e.nodes, id)
	}
	for _, i := range dirtyOrd {
		id := order[i]
		if nd, ok := e.nodes[id]; ok {
			for v := range nd.nbr {
				delete(e.nodes[v].nbr, id)
			}
			nd.nbr = map[netlist.InstID]compat.TestMask{}
		} else {
			e.nodes[id] = &node{nbr: map[netlist.InstID]compat.TestMask{}}
		}
		nd := e.nodes[id]
		nd.inst = infos[i].Inst
		nd.info = infos[i]
		nd.sig = sigs[i]
	}
	st := &e.stats
	for di, r := range results {
		i := dirtyOrd[di]
		a := e.nodes[order[i]]
		a.bound = r.bound
		st.LastPairsTested += len(r.cand)
		for k, j := range r.cand {
			if r.retst[k] {
				st.LastEdgesRetested++
			}
			if !r.ok[k] {
				st.LastRejectsByTest[testIndex(firstFailing(r.mask[k]))]++
				continue
			}
			b := e.nodes[order[j]]
			a.nbr[order[j]] = r.mask[k]
			b.nbr[order[i]] = r.mask[k]
		}
	}
}

// materialize produces the compat.Graph view: nodes in ascending instance-ID
// order (the Build order) with CSR-backed, ascending-sorted adjacency rows.
func (e *Engine) materialize(opts compat.Options) *compat.Graph {
	n := len(e.order)
	ordOf := e.ordOf
	regs := make([]*compat.RegInfo, n)
	copy(regs, e.infosArr)
	total := 0
	for _, id := range e.order {
		total += len(e.nodes[id].nbr)
	}
	backing := make([]int, 0, total)
	adj := make([][]int, n)
	for i, id := range e.order {
		nd := e.nodes[id]
		start := len(backing)
		for v := range nd.nbr {
			backing = append(backing, ordOf[v])
		}
		row := backing[start:len(backing):len(backing)]
		sort.Ints(row)
		adj[i] = row
	}
	exc := make(map[netlist.InstID]compat.NotComposableReason, len(e.excluded))
	for id, why := range e.excluded {
		exc[id] = why
	}
	return compat.FromParts(e.d, e.plan, opts, regs, adj, exc)
}

// firstFailing extracts the first test not passed, in evaluation order.
func firstFailing(passed compat.TestMask) compat.TestMask {
	for _, t := range [4]compat.TestMask{compat.TestFunctional, compat.TestScan, compat.TestPlacement, compat.TestTiming} {
		if passed&t == 0 {
			return t
		}
	}
	return 0
}

func testIndex(t compat.TestMask) int {
	switch t {
	case compat.TestFunctional:
		return 0
	case compat.TestScan:
		return 1
	case compat.TestPlacement:
		return 2
	default:
		return 3
	}
}

// BoundMask returns the per-node reason bitmask of a register: which tests
// rejected candidate pairs at that node the last time it was re-tested.
func (e *Engine) BoundMask(id netlist.InstID) compat.TestMask {
	if nd, ok := e.nodes[id]; ok {
		return nd.bound
	}
	return 0
}

// boundedDim picks a grid dimension whose cell size is no smaller than the
// average region extent along that axis, capped at dimCap: regions then
// cover O(1) cells each, keeping insert and query linear in n.
func boundedDim(core, sumExtent int64, n, dimCap int) int {
	if n == 0 || core <= 0 {
		return 1
	}
	avg := sumExtent / int64(n)
	if avg <= 0 {
		return dimCap
	}
	dim := int(core / avg)
	if dim < 1 {
		dim = 1
	}
	if dim > dimCap {
		dim = dimCap
	}
	return dim
}
