package sta

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/lib"
	"repro/internal/netlist"
)

var testLib = lib.MustGenerateDefault()

func ffClass() lib.FuncClass {
	return lib.FuncClass{Kind: lib.FlipFlop, Edge: lib.RisingEdge, Reset: lib.NoReset, Scan: lib.NoScan}
}

func regCell(t testing.TB, bits int) *lib.Cell {
	t.Helper()
	cs := testLib.CellsOfWidth(ffClass(), bits)
	if len(cs) == 0 {
		t.Fatalf("no %d-bit cell", bits)
	}
	return cs[0]
}

var bufSpec = &netlist.CombSpec{
	Name: "BUF_X2", NumInputs: 1, DriveRes: 3, Intrinsic: 20, InCap: 0.8,
	Width: 600, Height: 1200,
}

// pipeline builds: in → r1.D ; r1.Q → buf → r2.D ; r2.Q → out.
// Returns design and the two registers.
func pipeline(t testing.TB) (*netlist.Design, *netlist.Inst, *netlist.Inst) {
	t.Helper()
	d := netlist.NewDesign("pipe", geom.RectWH(0, 0, 200000, 200000), testLib)
	d.Timing = netlist.TimingSpec{
		ClockPeriod:     1000,
		WireCapPerDBU:   0.0002,
		WireDelayPerDBU: 0.004,
		InputDelay:      50,
		OutputDelay:     50,
	}
	clk := d.AddNet("clk", true)

	r1, err := d.AddRegister("r1", regCell(t, 1), geom.Point{X: 10000, Y: 12000})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := d.AddRegister("r2", regCell(t, 1), geom.Point{X: 40000, Y: 12000})
	if err != nil {
		t.Fatal(err)
	}
	d.Connect(d.ClockPin(r1), clk)
	d.Connect(d.ClockPin(r2), clk)

	in, _ := d.AddPort("in", true, geom.Point{X: 0, Y: 12000})
	out, _ := d.AddPort("out", false, geom.Point{X: 80000, Y: 12000})
	buf, _ := d.AddComb("u_buf", bufSpec, geom.Point{X: 25000, Y: 12000})

	n1 := d.AddNet("n_in", false)
	d.Connect(d.OutPin(in), n1)
	d.Connect(d.DPin(r1, 0), n1)

	n2 := d.AddNet("n_q1", false)
	d.Connect(d.QPin(r1, 0), n2)
	d.Connect(d.FindPin(buf, netlist.PinData, 0), n2)

	n3 := d.AddNet("n_b", false)
	d.Connect(d.OutPin(buf), n3)
	d.Connect(d.DPin(r2, 0), n3)

	n4 := d.AddNet("n_q2", false)
	d.Connect(d.QPin(r2, 0), n4)
	d.Connect(d.FindPin(out, netlist.PinData, 0), n4)

	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d, r1, r2
}

func TestPipelineArrivalsAndSlacks(t *testing.T) {
	d, r1, r2 := pipeline(t)
	e := New(d)
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}

	// Manual computation of arrival at r2.D:
	// launch at r1 clock (ideal, 0) + clk2q(r1) with load of n_q1
	cell := r1.RegCell
	nq1 := d.Net(d.QPin(r1, 0).Net)
	aQ1 := cell.Intrinsic + cell.DriveRes*d.NetLoadCap(nq1)
	if got := e.Arrival(d.QPin(r1, 0).ID); math.Abs(got-aQ1) > 1e-9 {
		t.Fatalf("arrival(r1.Q) = %g want %g", got, aQ1)
	}
	// wire to buffer input
	wire1 := d.Timing.WireDelayPerDBU *
		float64(d.PinPos(d.QPin(r1, 0)).ManhattanDist(d.PinPos(d.FindPin(d.InstByName("u_buf"), netlist.PinData, 0))))
	// buffer delay
	buf := d.InstByName("u_buf")
	nb := d.Net(d.OutPin(buf).Net)
	bufDelay := buf.Comb.Intrinsic + buf.Comb.DriveRes*d.NetLoadCap(nb)
	// wire to r2.D
	wire2 := d.Timing.WireDelayPerDBU *
		float64(d.PinPos(d.OutPin(buf)).ManhattanDist(d.PinPos(d.DPin(r2, 0))))
	wantArr := aQ1 + wire1 + bufDelay + wire2
	if got := e.Arrival(d.DPin(r2, 0).ID); math.Abs(got-wantArr) > 1e-9 {
		t.Fatalf("arrival(r2.D) = %g want %g", got, wantArr)
	}
	wantSlack := (d.Timing.ClockPeriod - r2.RegCell.Setup) - wantArr
	if got := res.Slack[d.DPin(r2, 0).ID]; math.Abs(got-wantSlack) > 1e-9 {
		t.Fatalf("slack(r2.D) = %g want %g", got, wantSlack)
	}
	if res.FailingEndpoints != 0 {
		t.Fatalf("unexpected failing endpoints: %d", res.FailingEndpoints)
	}
	if res.TotalEndpoints != 3 { // r1.D, r2.D, out
		t.Fatalf("TotalEndpoints = %d want 3", res.TotalEndpoints)
	}
	if res.TNS != 0 {
		t.Fatalf("TNS = %g want 0", res.TNS)
	}
}

func TestFailingPathDetection(t *testing.T) {
	d, _, _ := pipeline(t)
	d.Timing.ClockPeriod = 100 // impossible period
	e := New(d)
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FailingEndpoints == 0 || res.TNS >= 0 || res.WNS >= 0 {
		t.Fatalf("expected violations: failing=%d TNS=%g WNS=%g",
			res.FailingEndpoints, res.TNS, res.WNS)
	}
}

func TestQSlackEqualsDownstreamDSlack(t *testing.T) {
	d, r1, r2 := pipeline(t)
	e := New(d)
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The r1.Q → r2.D path is the only fanout of r1.Q, so the back-propagated
	// required time gives slack(r1.Q) == slack(r2.D).
	s1 := RegQSlack(d, res, r1)
	s2 := res.Slack[d.DPin(r2, 0).ID]
	if math.Abs(s1-s2) > 1e-9 {
		t.Fatalf("QSlack(r1)=%g want %g", s1, s2)
	}
}

func TestUsefulSkewImprovesWorstSlack(t *testing.T) {
	d, r1, _ := pipeline(t)
	// Tighten the period so the r1→r2 path fails while r1's input path has
	// plenty of slack: r1 then has positive D slack and negative Q slack,
	// the classic candidate for a negative (earlier-clock) useful skew.
	d.Timing.ClockPeriod = 250
	d.Timing.OutputDelay = 0
	e := New(d)
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	dBefore := RegDSlack(d, res, r1)
	qBefore := RegQSlack(d, res, r1)
	if qBefore >= 0 {
		t.Fatalf("test setup: expected failing Q side at r1, slack=%g", qBefore)
	}
	if dBefore <= qBefore {
		t.Fatalf("test setup: need D slack better than Q slack (%g vs %g)", dBefore, qBefore)
	}
	n := e.AssignUsefulSkew([]*netlist.Inst{r1}, res, 1000)
	if n != 1 {
		t.Fatalf("improved = %d want 1", n)
	}
	if e.Skew(r1.ID) >= 0 {
		t.Fatalf("expected negative skew (earlier clock), got %g", e.Skew(r1.ID))
	}
	res2, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	worstBefore := math.Min(dBefore, qBefore)
	worstAfter := math.Min(RegDSlack(d, res2, r1), RegQSlack(d, res2, r1))
	if worstAfter <= worstBefore {
		t.Fatalf("useful skew did not help: %g → %g", worstBefore, worstAfter)
	}
}

func TestSkewClamping(t *testing.T) {
	d, r1, _ := pipeline(t)
	d.Timing.ClockPeriod = 250
	d.Timing.OutputDelay = 0
	e := New(d)
	res, _ := e.Run()
	e.AssignUsefulSkew([]*netlist.Inst{r1}, res, 5) // tiny window
	if s := e.Skew(r1.ID); math.Abs(s) > 5+1e-12 {
		t.Fatalf("skew %g exceeds window", s)
	}
}

func TestClockTreePropagation(t *testing.T) {
	d, r1, r2 := pipeline(t)
	// Insert a clock buffer: clkroot (port) → buf → clk net.
	clkNet := d.Net(d.ClockNet(r1))
	clkNet2 := d.AddNet("clkroot", true)
	cp, _ := d.AddPort("clkport", true, geom.Point{X: 0, Y: 0})
	d.Connect(d.OutPin(cp), clkNet2)
	cb, _ := d.AddClockBuf("cb0", bufSpec, geom.Point{X: 5000, Y: 5000})
	d.Connect(d.FindPin(cb, netlist.PinData, 0), clkNet2)
	d.Connect(d.OutPin(cb), clkNet)

	e := New(d)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	a1, ok1 := e.ClockArrival(r1.ID)
	a2, ok2 := e.ClockArrival(r2.ID)
	if !ok1 || !ok2 {
		t.Fatalf("registers without a clock arrival: %v %v", ok1, ok2)
	}
	if a1 <= 0 || a2 <= 0 {
		t.Fatalf("clock arrivals must be positive after buffering: %g %g", a1, a2)
	}
	// r2 is farther from the buffer → later arrival.
	if a2 <= a1 {
		t.Fatalf("expected a2 > a1, got %g vs %g", a2, a1)
	}
}

func TestCombinationalCycleDetected(t *testing.T) {
	d := netlist.NewDesign("cyc", geom.RectWH(0, 0, 10000, 10000), testLib)
	d.Timing.ClockPeriod = 1000
	a, _ := d.AddComb("a", bufSpec, geom.Point{X: 0, Y: 0})
	b, _ := d.AddComb("b", bufSpec, geom.Point{X: 2000, Y: 0})
	n1 := d.AddNet("n1", false)
	n2 := d.AddNet("n2", false)
	d.Connect(d.OutPin(a), n1)
	d.Connect(d.FindPin(b, netlist.PinData, 0), n1)
	d.Connect(d.OutPin(b), n2)
	d.Connect(d.FindPin(a, netlist.PinData, 0), n2)
	if _, err := New(d).Run(); err == nil {
		t.Fatal("expected combinational cycle error")
	}
}

func TestFeasibleRegionPositiveSlack(t *testing.T) {
	d, r1, _ := pipeline(t)
	e := New(d)
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	reg := FeasibleRegion(d, res, r1)
	if !reg.Valid() {
		t.Fatal("region must be valid")
	}
	// The register's current corner must always be inside its own region.
	if !reg.Contains(r1.Pos) {
		t.Fatalf("region %v does not contain corner %v", reg, r1.Pos)
	}
	// With generous slack the region must have real extent.
	if reg.W() == 0 && reg.H() == 0 {
		t.Fatal("positive-slack register should be movable")
	}
}

func TestFeasibleRegionShrinksWithTighterClock(t *testing.T) {
	d, r1, _ := pipeline(t)
	e := New(d)
	res, _ := e.Run()
	loose := FeasibleRegion(d, res, r1)

	d.Timing.ClockPeriod = 500
	res2, _ := e.Run()
	tight := FeasibleRegion(d, res2, r1)
	if tight.W() > loose.W() || tight.H() > loose.H() {
		t.Fatalf("tighter clock must shrink region: %v vs %v", tight, loose)
	}
}

func TestFeasibleRegionNegativeSlackUsesNetBox(t *testing.T) {
	d, r1, _ := pipeline(t)
	d.Timing.ClockPeriod = 100 // everything fails
	e := New(d)
	res, _ := e.Run()
	reg := FeasibleRegion(d, res, r1)
	// Region must still be valid and include (or be) the current position.
	if !reg.Valid() {
		t.Fatal("region must remain valid under violations")
	}
	if !reg.Contains(r1.Pos) {
		// The paper allows a degenerate region matching the footprint.
		if reg.Lo != r1.Pos {
			t.Fatalf("violating register region %v should pin to %v", reg, r1.Pos)
		}
	}
}

func TestRunAfterMergeStillWorks(t *testing.T) {
	d, r1, r2 := pipeline(t)
	// r1, r2 share clock but have different control nets? They share clock
	// only; merge is structurally fine.
	cells := testLib.CellsOfWidth(ffClass(), 2)
	res0, err := New(d).Run()
	if err != nil {
		t.Fatal(err)
	}
	_ = res0
	mr, err := d.MergeRegisters([]*netlist.Inst{r1, r2}, cells[0], "m", geom.Point{X: 20000, Y: 12000})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := New(d).Run()
	if err != nil {
		t.Fatal(err)
	}
	// The merged register now launches and captures through the buffer
	// path; both D endpoints must be constrained.
	for b := 0; b < 2; b++ {
		p := d.DPin(mr.MBR, b)
		if p.Net == netlist.NoID {
			continue
		}
		if math.IsInf(res.PinSlack(p.ID), 1) {
			t.Fatalf("bit %d endpoint unconstrained after merge", b)
		}
	}
}

func TestSetSkewZeroClears(t *testing.T) {
	d, r1, _ := pipeline(t)
	e := New(d)
	e.SetSkew(r1.ID, 25)
	if e.Skew(r1.ID) != 25 {
		t.Fatal("skew not set")
	}
	e.SetSkew(r1.ID, 0)
	if e.Skew(r1.ID) != 0 {
		t.Fatal("zero skew must clear")
	}
	e.SetSkew(r1.ID, 10)
	e.ClearSkews()
	if e.Skew(r1.ID) != 0 {
		t.Fatal("ClearSkews must clear")
	}
}
