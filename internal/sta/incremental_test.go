package sta

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/netlist"
)

// timing is everything one run computed: the returned snapshot plus the
// per-pin arrival/required times and per-register clock arrivals, read
// through the engine accessors right after the run.
type timing struct {
	res      *Results
	arr, req []float64
	clk      map[netlist.InstID]float64
}

// runTiming runs the engine and captures its full state.
func runTiming(t *testing.T, d *netlist.Design, e *Engine) timing {
	t.Helper()
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	tm := timing{res: res, clk: map[netlist.InstID]float64{}}
	for i := range res.Slack {
		tm.arr = append(tm.arr, e.Arrival(netlist.PinID(i)))
		tm.req = append(tm.req, e.Required(netlist.PinID(i)))
	}
	d.Insts(func(in *netlist.Inst) {
		if a, ok := e.ClockArrival(in.ID); ok {
			tm.clk[in.ID] = a
		}
	})
	return tm
}

// sameResults reports whether two runs are bit-identical (exact float
// equality — the incremental path promises byte-identity, not tolerance).
func sameResults(t *testing.T, got, want timing) {
	t.Helper()
	if len(got.res.Slack) != len(want.res.Slack) {
		t.Fatalf("pin space differs: %d vs %d", len(got.res.Slack), len(want.res.Slack))
	}
	for i := range got.res.Slack {
		if got.arr[i] != want.arr[i] {
			t.Fatalf("arrival[%d] = %v want %v", i, got.arr[i], want.arr[i])
		}
		if got.req[i] != want.req[i] {
			t.Fatalf("required[%d] = %v want %v", i, got.req[i], want.req[i])
		}
		if got.res.Slack[i] != want.res.Slack[i] {
			t.Fatalf("slack[%d] = %v want %v", i, got.res.Slack[i], want.res.Slack[i])
		}
	}
	g, w := got.res, want.res
	if g.WNS != w.WNS || g.TNS != w.TNS ||
		g.FailingEndpoints != w.FailingEndpoints ||
		g.TotalEndpoints != w.TotalEndpoints {
		t.Fatalf("summary differs: got WNS=%v TNS=%v fail=%d total=%d, want WNS=%v TNS=%v fail=%d total=%d",
			g.WNS, g.TNS, g.FailingEndpoints, g.TotalEndpoints,
			w.WNS, w.TNS, w.FailingEndpoints, w.TotalEndpoints)
	}
	if len(got.clk) != len(want.clk) {
		t.Fatalf("clock arrival count differs: %d vs %d", len(got.clk), len(want.clk))
	}
	for id, v := range want.clk {
		if a, ok := got.clk[id]; !ok || a != v {
			t.Fatalf("clock arrival[%d] = %v (present %v) want %v", id, a, ok, v)
		}
	}
}

func TestIncrementalMatchesFullAfterParametricEdits(t *testing.T) {
	d, r1, r2 := pipeline(t)
	// Pad the design so the touched set stays under the engine's
	// "quarter of the instances → just rebuild" heuristic.
	for i := 0; i < 16; i++ {
		r, err := d.AddRegister(fmt.Sprintf("pad_%d", i), regCell(t, 1),
			geom.Point{X: int64(60000 + 1000*i), Y: 30000})
		if err != nil {
			t.Fatal(err)
		}
		d.Connect(d.ClockPin(r), d.Net(d.ClockNet(r1)))
	}
	e := New(d)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.FullBuilds != 1 || s.IncrementalRuns != 0 {
		t.Fatalf("first run stats = %+v", s)
	}

	buf := d.InstByName("u_buf")
	d.MoveInst(buf, geom.Point{X: 30000, Y: 14000})
	d.MoveInst(r2, geom.Point{X: 45000, Y: 11000})
	if cs := testLib.CellsOfWidth(ffClass(), 1); len(cs) > 1 {
		if err := d.ResizeRegister(r1, cs[1]); err != nil {
			t.Fatal(err)
		}
	}
	e.SetSkew(r1.ID, 30)

	got := runTiming(t, d, e)
	if s := e.Stats(); s.IncrementalRuns != 1 {
		t.Fatalf("edit run did not take the incremental path: %+v", s)
	}
	if s := e.Stats(); s.LastConePins == 0 {
		t.Fatalf("incremental run re-evaluated no pins: %+v", s)
	}

	oracle := New(d)
	oracle.SetSkew(r1.ID, 30)
	sameResults(t, got, runTiming(t, d, oracle))
}

func TestIncrementalNoEditsIsStable(t *testing.T) {
	d, _, _ := pipeline(t)
	e := New(d)
	first := runTiming(t, d, e)
	second := runTiming(t, d, e)
	sameResults(t, second, first)
	if s := e.Stats(); s.FullBuilds != 1 || s.IncrementalRuns != 1 {
		t.Fatalf("stats = %+v, want one full and one incremental run", s)
	}
}

// TestHeldResultsSurviveIncrementalRun checks that a snapshot is a copy:
// an incremental run that changes slacks must leave an earlier Results —
// its slacks, WNS and TNS — as it was.
func TestHeldResultsSurviveIncrementalRun(t *testing.T) {
	d, r1, r2 := pipeline(t)
	e := New(d)
	held, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	slack := slices.Clone(held.Slack)
	wns, tns := held.WNS, held.TNS

	d.MoveInst(r2, geom.Point{X: r2.Pos.X + 20000, Y: r2.Pos.Y + 8000})
	e.SetSkew(r1.ID, -25)
	next, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.LastKind != "incremental" {
		t.Fatalf("edit run took the %q path, want incremental", s.LastKind)
	}
	if slices.Equal(next.Slack, slack) && next.WNS == wns && next.TNS == tns {
		t.Fatal("the edits changed no slack; the test exercises nothing")
	}
	if !slices.Equal(held.Slack, slack) || held.WNS != wns || held.TNS != tns {
		t.Fatalf("held snapshot changed: WNS %v→%v TNS %v→%v", wns, held.WNS, tns, held.TNS)
	}
}

func TestStructuralEditForcesRebuild(t *testing.T) {
	d, _, r2 := pipeline(t)
	e := New(d)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Re-route r2.Q → out through a reconnect: structural.
	qp := d.QPin(r2, 0)
	n := d.Net(qp.Net)
	d.Disconnect(qp)
	d.Connect(qp, n)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.FullBuilds != 2 || s.IncrementalRuns != 0 {
		t.Fatalf("stats = %+v, want the structural edit to force a rebuild", s)
	}
}

func TestTimingSpecChangeForcesRebuild(t *testing.T) {
	d, _, _ := pipeline(t)
	e := New(d)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	d.Timing.ClockPeriod = 800 // direct field write: no epoch, caught by the spec snapshot
	got := runTiming(t, d, e)
	if s := e.Stats(); s.FullBuilds != 2 {
		t.Fatalf("stats = %+v, want Timing change to force a rebuild", s)
	}
	sameResults(t, got, runTiming(t, d, New(d)))
}

func TestClockGateChainArrivals(t *testing.T) {
	d, r1, r2 := pipeline(t)
	// clkport → cb → (mid net) → gate → clk: a two-stage clock chain.
	clkNet := d.Net(d.ClockNet(r1))
	root := d.AddNet("clkroot", true)
	mid := d.AddNet("clkmid", true)
	cp, _ := d.AddPort("clkport", true, geom.Point{X: 0, Y: 0})
	d.Connect(d.OutPin(cp), root)
	cb, _ := d.AddClockBuf("cb0", bufSpec, geom.Point{X: 5000, Y: 5000})
	d.Connect(d.FindPin(cb, netlist.PinData, 0), root)
	d.Connect(d.OutPin(cb), mid)
	cg, _ := d.AddClockGate("cg0", bufSpec, geom.Point{X: 8000, Y: 8000})
	d.Connect(d.FindPin(cg, netlist.PinData, 0), mid)
	d.Connect(d.OutPin(cg), clkNet)

	prop := runTiming(t, d, New(d))
	// Two stages of intrinsic delay is a hard floor for both registers.
	floor := 2 * bufSpec.Intrinsic
	for _, r := range []*netlist.Inst{r1, r2} {
		if a := prop.clk[r.ID]; a <= floor {
			t.Fatalf("clock arrival at %s = %g, want > %g (two chained stages)", r.Name, a, floor)
		}
	}

	// Ideal mode ignores the whole chain.
	e := New(d)
	e.SetIdealClocks(true)
	ideal := runTiming(t, d, e)
	if a1, a2 := ideal.clk[r1.ID], ideal.clk[r2.ID]; len(ideal.clk) != 2 || a1 != 0 || a2 != 0 {
		t.Fatalf("ideal-clock arrivals = %v; want 0 at both registers", ideal.clk)
	}
}

func TestClockNetworkLoopDetected(t *testing.T) {
	d, r1, _ := pipeline(t)
	// Two clock buffers driving each other; the registers' clock net hangs
	// off the cycle.
	clkNet := d.Net(d.ClockNet(r1))
	na := d.AddNet("loop_a", true)
	cb1, _ := d.AddClockBuf("cb1", bufSpec, geom.Point{X: 5000, Y: 5000})
	cb2, _ := d.AddClockBuf("cb2", bufSpec, geom.Point{X: 6000, Y: 6000})
	d.Connect(d.OutPin(cb1), na)
	d.Connect(d.FindPin(cb2, netlist.PinData, 0), na)
	d.Connect(d.OutPin(cb2), clkNet)
	d.Connect(d.FindPin(cb1, netlist.PinData, 0), clkNet)

	_, err := New(d).Run()
	if err == nil || !strings.Contains(err.Error(), "clock network loop") {
		t.Fatalf("err = %v, want clock network loop", err)
	}

	// Ideal mode never walks the clock network, so the same design analyzes.
	e := New(d)
	e.SetIdealClocks(true)
	if _, err := e.Run(); err != nil {
		t.Fatalf("ideal-clock run failed on looped clock network: %v", err)
	}
}

func TestIdealEqualsPropagatedOnUndrivenClock(t *testing.T) {
	// The pipeline fixture's clk net has no driver: propagated analysis
	// treats it as an ideal root, so both modes must agree exactly.
	d, _, _ := pipeline(t)
	prop := runTiming(t, d, New(d))
	e := New(d)
	e.SetIdealClocks(true)
	sameResults(t, runTiming(t, d, e), prop)
}

func TestCombinationalSelfLoopDetected(t *testing.T) {
	d := netlist.NewDesign("self", geom.RectWH(0, 0, 10000, 10000), testLib)
	d.Timing.ClockPeriod = 1000
	a, _ := d.AddComb("a", bufSpec, geom.Point{X: 0, Y: 0})
	n := d.AddNet("n", false)
	d.Connect(d.OutPin(a), n)
	d.Connect(d.FindPin(a, netlist.PinData, 0), n)
	_, err := New(d).Run()
	if err == nil || !strings.Contains(err.Error(), "combinational cycle") {
		t.Fatalf("err = %v, want combinational cycle", err)
	}
}

func TestNetSinkPosOnInstMissingSink(t *testing.T) {
	d, r1, r2 := pipeline(t)
	clkNet := d.Net(d.ClockNet(r1))
	buf := d.InstByName("u_buf")
	// The buffer has no pin on the clock net: the lookup must say so
	// instead of inventing a position.
	if _, ok := netSinkPosOnInst(d, clkNet, buf); ok {
		t.Fatal("netSinkPosOnInst found a sink that does not exist")
	}
	if pos, ok := netSinkPosOnInst(d, clkNet, r2); !ok || pos != d.PinPos(d.ClockPin(r2)) {
		t.Fatalf("netSinkPosOnInst(r2) = %v, %v; want clock pin position", pos, ok)
	}
}

func TestParallelSweepMatchesSequential(t *testing.T) {
	d, r1, _ := pipeline(t)
	seq := New(d)
	seq.SetWorkers(1)
	want := runTiming(t, d, seq)
	for _, w := range []int{0, 2, 7} {
		e := New(d)
		e.SetWorkers(w)
		sameResults(t, runTiming(t, d, e), want)
	}
	_ = r1
}
