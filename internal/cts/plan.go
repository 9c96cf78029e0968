package cts

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/geom"
	"repro/internal/netlist"
)

// The clustering *plan* separates the pure geometry of tree construction
// from the netlist edits that realize it. planTree recomputes, in memory,
// exactly the levelized cluster structure Build's recursion produces for a
// sink set; Build realizes a plan with fresh buffers and nets, while the
// retained Engine diffs a plan against its live tree and only edits the
// clusters that changed. Both paths therefore agree by construction on
// topology, centroids, member order and — after the shared legalization
// pass — buffer positions.

// planSink is one load in clustering space: a real sink pin at level 0, or
// a lower-level cluster's buffer (child >= 0) above.
type planSink struct {
	pin   *netlist.Pin // real sink (nil for a buffer-level sink)
	child int          // index into the previous plan level, -1 for a real sink
	pos   geom.Point
	cap   float64
	// ord is the deterministic tie-break for exactly co-located sinks:
	// the pin ID for real sinks, the child index above. Both Build and the
	// Engine derive it the same way, so ties never depend on input order.
	ord int64
}

// planCluster is one buffer-to-be: its member loads in connect order and
// the centroid the buffer is dropped at before legalization.
type planCluster struct {
	members  []planSink
	centroid geom.Point
}

// treePlan is the levelized clustering: levels[0] drives real sinks, each
// higher level drives the previous level's buffers, and the last level has
// exactly one cluster — the root buffer.
type treePlan struct {
	levels [][]planCluster
}

// clusters returns the total cluster (= buffer) count.
func (p *treePlan) clusters() int {
	n := 0
	for _, lvl := range p.levels {
		n += len(lvl)
	}
	return n
}

// planTree levelizes the sinks bottom-up: cluster, then re-cluster the
// cluster centroids, until a single root cluster remains. workers bounds
// the parallel fan-out of the recursive bisection (1 = sequential; results
// are identical for any value).
func planTree(sinks []planSink, opts Options, workers int) (*treePlan, error) {
	p := &treePlan{}
	cur := sinks
	for level := 0; ; level++ {
		if level > 64 {
			return nil, fmt.Errorf("cts: runaway recursion")
		}
		cls := clusterSinks(cur, opts, parDepth(workers))
		row := make([]planCluster, len(cls))
		for ci, cl := range cls {
			row[ci] = planCluster{members: cl, centroid: centroidOf(cl)}
		}
		p.levels = append(p.levels, row)
		if len(row) == 1 {
			return p, nil
		}
		next := make([]planSink, len(row))
		for ci := range row {
			next[ci] = planSink{
				child: ci, pos: row[ci].centroid,
				cap: opts.Buffer.InCap, ord: int64(ci),
			}
		}
		cur = next
	}
}

// parDepth converts a worker count to a recursion depth at which the
// bisection may fork: 2^depth concurrent branches.
func parDepth(workers int) int {
	d := 0
	for w := 1; w < workers && d < 8; w *= 2 {
		d++
	}
	return d
}

// parallelClusterMin is the smallest slice worth forking a goroutine for.
const parallelClusterMin = 1024

// clusterSinks recursively bisects the sinks along the longer bounding-box
// axis until each cluster satisfies the fanout and capacitance limits.
// This is the geometry of Build's original clustering: every node sorts
// its sinks along its axis (ties broken by the other coordinate, then by
// ord) and hands the lower half to the left child. The sinks are sorted
// only once, though, into one index order per axis; a split stably
// partitions the other order by side, which leaves each child with both
// orders of exactly its own sinks. Because ord is unique, the comparators
// are total orders, so this yields the very sequences a per-node sort
// would. A child's capacitance total is folded in its parent's axis order
// and a leaf's members keep that order, so the float sums and the net sink
// order equal the per-node sort's too. par levels of the recursion may
// run both halves concurrently; the halves own disjoint index ranges, so
// the output is identical to the sequential run.
func clusterSinks(sinks []planSink, opts Options, par int) [][]planSink {
	totalCap := 0.0
	for _, s := range sinks {
		totalCap += s.cap
	}
	if len(sinks) <= opts.MaxFanout && totalCap <= opts.MaxCap {
		return [][]planSink{sinks}
	}
	n := len(sinks)
	b := &bisector{
		sinks: sinks, opts: opts,
		byX: make([]int32, n), byY: make([]int32, n), tmp: make([]int32, n),
		left: make([]bool, n), start: make([]bool, n), out: make([]planSink, n),
	}
	for i := range sinks {
		b.byX[i] = int32(i)
		b.byY[i] = int32(i)
	}
	slices.SortFunc(b.byX, func(i, j int32) int {
		p, q := &sinks[i], &sinks[j]
		if c := cmp.Compare(p.pos.X, q.pos.X); c != 0 {
			return c
		}
		if c := cmp.Compare(p.pos.Y, q.pos.Y); c != 0 {
			return c
		}
		return cmp.Compare(p.ord, q.ord)
	})
	slices.SortFunc(b.byY, func(i, j int32) int {
		p, q := &sinks[i], &sinks[j]
		if c := cmp.Compare(p.pos.Y, q.pos.Y); c != 0 {
			return c
		}
		if c := cmp.Compare(p.pos.X, q.pos.X); c != 0 {
			return c
		}
		return cmp.Compare(p.ord, q.ord)
	})
	b.bisect(0, n, par)
	var cls [][]planSink
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && !b.start[hi] {
			hi++
		}
		cls = append(cls, b.out[lo:hi:hi])
		lo = hi
	}
	return cls
}

// bisector is the working state of one clusterSinks call. byX and byY
// hold sink indices in the two axis orders; over any recursion node's
// range [lo, hi) both contain exactly that node's sinks. tmp is partition
// scratch, left marks each sink's side of the current split, and out
// receives the leaf clusters in left-to-right order, start[lo] marking
// the first member of each.
type bisector struct {
	sinks    []planSink
	opts     Options
	byX, byY []int32
	tmp      []int32
	left     []bool
	start    []bool
	out      []planSink
}

// node finishes the range [lo, hi) as one cluster when it satisfies the
// limits and bisects it otherwise. cur is the parent's axis order, which
// fixes both the capacitance summation order and the member order.
func (b *bisector) node(lo, hi int, cur []int32, par int) {
	totalCap := 0.0
	for _, i := range cur[lo:hi] {
		totalCap += b.sinks[i].cap
	}
	if hi-lo <= b.opts.MaxFanout && totalCap <= b.opts.MaxCap {
		b.start[lo] = true
		for k, i := range cur[lo:hi] {
			b.out[lo+k] = b.sinks[i]
		}
		return
	}
	b.bisect(lo, hi, par)
}

// bisect splits the range [lo, hi) at the median of its longer
// bounding-box axis and recurses into both halves.
func (b *bisector) bisect(lo, hi int, par int) {
	first := b.sinks[b.byX[lo]].pos
	bb := geom.Rect{Lo: first, Hi: first}
	for _, i := range b.byX[lo+1 : hi] {
		p := b.sinks[i].pos
		bb.Lo.X, bb.Hi.X = min(bb.Lo.X, p.X), max(bb.Hi.X, p.X)
		bb.Lo.Y, bb.Hi.Y = min(bb.Lo.Y, p.Y), max(bb.Hi.Y, p.Y)
	}
	axis, other := b.byX, b.byY
	if bb.W() < bb.H() {
		axis, other = b.byY, b.byX
	}
	mid := lo + (hi-lo)/2
	for _, i := range axis[lo:mid] {
		b.left[i] = true
	}
	for _, i := range axis[mid:hi] {
		b.left[i] = false
	}
	l, r := lo, mid
	for _, i := range other[lo:hi] {
		if b.left[i] {
			b.tmp[l] = i
			l++
		} else {
			b.tmp[r] = i
			r++
		}
	}
	copy(other[lo:hi], b.tmp[lo:hi])
	if par > 0 && hi-lo >= parallelClusterMin {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.node(lo, mid, axis, par-1)
		}()
		b.node(mid, hi, axis, par-1)
		wg.Wait()
	} else {
		b.node(lo, mid, axis, 0)
		b.node(mid, hi, axis, 0)
	}
}

func centroidOf(cl []planSink) geom.Point {
	var sx, sy int64
	for _, s := range cl {
		sx += s.pos.X
		sy += s.pos.Y
	}
	n := int64(len(cl))
	return geom.Point{X: sx / n, Y: sy / n}
}
