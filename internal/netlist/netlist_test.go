package netlist

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/lib"
)

var testLib = lib.MustGenerateDefault()

func testClass() lib.FuncClass {
	return lib.FuncClass{Kind: lib.FlipFlop, Edge: lib.RisingEdge, Reset: lib.AsyncReset, Scan: lib.NoScan}
}

func cellOf(t testing.TB, bits int) *lib.Cell {
	t.Helper()
	cells := testLib.CellsOfWidth(testClass(), bits)
	if len(cells) == 0 {
		t.Fatalf("no %d-bit cell", bits)
	}
	return cells[0]
}

func newTestDesign() *Design {
	return NewDesign("t", geom.RectWH(0, 0, 100000, 100000), testLib)
}

// buildPair returns a design with two 1-bit registers sharing clock and
// reset, each fed by an input port and feeding an output port.
func buildPair(t testing.TB) (*Design, *Inst, *Inst) {
	t.Helper()
	d := newTestDesign()
	clk := d.AddNet("clk", true)
	rst := d.AddNet("rst", false)

	r1, err := d.AddRegister("r1", cellOf(t, 1), geom.Point{X: 1000, Y: 1200})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := d.AddRegister("r2", cellOf(t, 1), geom.Point{X: 3000, Y: 1200})
	if err != nil {
		t.Fatal(err)
	}
	d.Connect(d.ClockPin(r1), clk)
	d.Connect(d.ClockPin(r2), clk)
	d.Connect(d.FindPin(r1, PinReset, 0), rst)
	d.Connect(d.FindPin(r2, PinReset, 0), rst)

	for i, r := range []*Inst{r1, r2} {
		name := []string{"a", "b"}[i]
		ip, _ := d.AddPort("in_"+name, true, geom.Point{X: 0, Y: int64(i) * 5000})
		op, _ := d.AddPort("out_"+name, false, geom.Point{X: 90000, Y: int64(i) * 5000})
		dn := d.AddNet("d_"+name, false)
		qn := d.AddNet("q_"+name, false)
		d.Connect(d.OutPin(ip), dn)
		d.Connect(d.DPin(r, 0), dn)
		d.Connect(d.QPin(r, 0), qn)
		d.Connect(d.FindPin(op, PinData, 0), qn)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return d, r1, r2
}

func TestAddRegisterPins(t *testing.T) {
	d := newTestDesign()
	cell := cellOf(t, 4)
	r, err := d.AddRegister("r", cell, geom.Point{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Bits() != 4 {
		t.Fatalf("Bits = %d", r.Bits())
	}
	for b := 0; b < 4; b++ {
		if d.DPin(r, b) == nil || d.QPin(r, b) == nil {
			t.Fatalf("missing D/Q pin for bit %d", b)
		}
	}
	if d.ClockPin(r) == nil {
		t.Fatal("missing clock pin")
	}
	if d.FindPin(r, PinReset, 0) == nil {
		t.Fatal("missing reset pin (class has async reset)")
	}
	if d.FindPin(r, PinScanIn, 0) != nil {
		t.Fatal("no-scan class must not have SI pin")
	}
}

func TestScanPinCreation(t *testing.T) {
	d := newTestDesign()
	iclass := lib.FuncClass{Kind: lib.FlipFlop, Scan: lib.InternalScan}
	icell := testLib.CellsOfWidth(iclass, 4)[0]
	r, err := d.AddRegister("ri", icell, geom.Point{})
	if err != nil {
		t.Fatal(err)
	}
	nSI, nSO := 0, 0
	for _, pid := range r.Pins {
		switch d.Pin(pid).Kind {
		case PinScanIn:
			nSI++
		case PinScanOut:
			nSO++
		}
	}
	if nSI != 1 || nSO != 1 {
		t.Fatalf("internal scan: SI=%d SO=%d want 1/1", nSI, nSO)
	}

	eclass := lib.FuncClass{Kind: lib.FlipFlop, Scan: lib.ExternalScan}
	ecell := testLib.CellsOfWidth(eclass, 4)[0]
	r2, err := d.AddRegister("re", ecell, geom.Point{})
	if err != nil {
		t.Fatal(err)
	}
	nSI, nSO = 0, 0
	for _, pid := range r2.Pins {
		switch d.Pin(pid).Kind {
		case PinScanIn:
			nSI++
		case PinScanOut:
			nSO++
		}
	}
	if nSI != 4 || nSO != 4 {
		t.Fatalf("external scan: SI=%d SO=%d want 4/4", nSI, nSO)
	}
}

func TestDuplicateInstanceName(t *testing.T) {
	d := newTestDesign()
	if _, err := d.AddRegister("r", cellOf(t, 1), geom.Point{}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddRegister("r", cellOf(t, 1), geom.Point{}); err == nil {
		t.Fatal("duplicate name must fail")
	}
}

func TestConnectDisconnect(t *testing.T) {
	d := newTestDesign()
	r, _ := d.AddRegister("r", cellOf(t, 1), geom.Point{})
	n1 := d.AddNet("n1", false)
	n2 := d.AddNet("n2", false)
	p := d.DPin(r, 0)
	d.Connect(p, n1)
	if p.Net != n1.ID || len(n1.Sinks) != 1 {
		t.Fatal("connect failed")
	}
	// Reconnecting moves the pin.
	d.Connect(p, n2)
	if p.Net != n2.ID || len(n1.Sinks) != 0 || len(n2.Sinks) != 1 {
		t.Fatal("reconnect failed")
	}
	q := d.QPin(r, 0)
	d.Connect(q, n1)
	if n1.Driver != q.ID {
		t.Fatal("driver connect failed")
	}
	d.Disconnect(q)
	if n1.Driver != NoID {
		t.Fatal("driver disconnect failed")
	}
}

func TestDoubleDriverPanics(t *testing.T) {
	d := newTestDesign()
	r1, _ := d.AddRegister("r1", cellOf(t, 1), geom.Point{})
	r2, _ := d.AddRegister("r2", cellOf(t, 1), geom.Point{})
	n := d.AddNet("n", false)
	d.Connect(d.QPin(r1, 0), n)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double driver")
		}
	}()
	d.Connect(d.QPin(r2, 0), n)
}

func TestHPWLAndPinPos(t *testing.T) {
	d, r1, _ := buildPair(t)
	qnet := d.Net(d.QPin(r1, 0).Net)
	hp := d.NetHPWL(qnet)
	// Net spans register Q pin to port at (90000, 0).
	qpos := d.PinPos(d.QPin(r1, 0))
	want := (90000 - qpos.X) + qpos.Y // port pin at (90000,0)
	if hp != want {
		t.Fatalf("HPWL = %d want %d", hp, want)
	}
	clkWL, sigWL := d.Wirelength()
	if clkWL <= 0 || sigWL <= 0 {
		t.Fatalf("wirelength split: clk=%d sig=%d", clkWL, sigWL)
	}
}

func TestNetLoadCap(t *testing.T) {
	d, r1, _ := buildPair(t)
	d.Timing.WireCapPerDBU = 0.0002
	dnet := d.Net(d.DPin(r1, 0).Net)
	load := d.NetLoadCap(dnet)
	wirePart := d.Timing.WireCapPerDBU * float64(d.NetHPWL(dnet))
	if load <= wirePart {
		t.Fatal("load must include sink pin caps")
	}
}

func TestMergeRegistersComplete(t *testing.T) {
	d, r1, r2 := buildPair(t)
	d1, q1 := d.DPin(r1, 0).Net, d.QPin(r1, 0).Net
	d2, q2 := d.DPin(r2, 0).Net, d.QPin(r2, 0).Net
	clk := d.ClockNet(r1)

	cell2 := cellOf(t, 2)
	res, err := d.MergeRegisters([]*Inst{r1, r2}, cell2, "mbr0", geom.Point{X: 2000, Y: 1200})
	if err != nil {
		t.Fatal(err)
	}
	if res.UnusedBits != 0 || len(res.Assignment) != 2 {
		t.Fatalf("result = %+v", res)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate after merge: %v", err)
	}
	m := res.MBR
	if d.DPin(m, 0).Net != d1 || d.QPin(m, 0).Net != q1 {
		t.Fatal("bit 0 rewire wrong")
	}
	if d.DPin(m, 1).Net != d2 || d.QPin(m, 1).Net != q2 {
		t.Fatal("bit 1 rewire wrong")
	}
	if d.ClockNet(m) != clk {
		t.Fatal("clock rewire wrong")
	}
	if d.Inst(r1.ID) != nil || d.InstByName("r1") != nil {
		t.Fatal("old registers must be removed")
	}
	if got := len(d.Registers()); got != 1 {
		t.Fatalf("register count = %d want 1", got)
	}
}

func TestMergeRegistersIncomplete(t *testing.T) {
	d, r1, r2 := buildPair(t)
	cell4 := cellOf(t, 4)
	res, err := d.MergeRegisters([]*Inst{r1, r2}, cell4, "mbr0", geom.Point{X: 2000, Y: 1200})
	if err != nil {
		t.Fatal(err)
	}
	if res.UnusedBits != 2 {
		t.Fatalf("UnusedBits = %d want 2", res.UnusedBits)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Bits 2 and 3 D/Q stay unconnected.
	for b := 2; b < 4; b++ {
		if d.DPin(res.MBR, b).Net != NoID || d.QPin(res.MBR, b).Net != NoID {
			t.Fatalf("incomplete bit %d must stay unconnected", b)
		}
	}
}

func TestMergeRejectsControlMismatch(t *testing.T) {
	d, r1, r2 := buildPair(t)
	// Move r2's reset onto a different net.
	rst2 := d.AddNet("rst2", false)
	d.Connect(d.FindPin(r2, PinReset, 0), rst2)
	_, err := d.MergeRegisters([]*Inst{r1, r2}, cellOf(t, 2), "m", geom.Point{})
	if err == nil || !strings.Contains(err.Error(), "disagrees") {
		t.Fatalf("err = %v, want control mismatch", err)
	}
}

// TestMergeRejectsBeforeTeardown pins the validate-then-commit contract: a
// rejected merge must leave the group untouched. A name collision with a
// live non-member instance (or a doubled group member) is detected before
// any RemoveInst, so the registers survive the failed call.
func TestMergeRejectsBeforeTeardown(t *testing.T) {
	d, r1, r2 := buildPair(t)
	if _, err := d.MergeRegisters([]*Inst{r1, r2}, cellOf(t, 2), "in_a", geom.Point{}); err == nil ||
		!strings.Contains(err.Error(), "already exists") {
		t.Fatalf("err = %v, want name collision", err)
	}
	if _, err := d.MergeRegisters([]*Inst{r1, r2, r1}, cellOf(t, 4), "m", geom.Point{}); err == nil ||
		!strings.Contains(err.Error(), "listed twice") {
		t.Fatalf("err = %v, want duplicate member", err)
	}
	for _, r := range []*Inst{r1, r2} {
		if d.Inst(r.ID) == nil || d.InstByName(r.Name) == nil {
			t.Fatalf("rejected merge destroyed %q", r.Name)
		}
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("design damaged by rejected merge: %v", err)
	}

	// Reusing a group member's own name is legal: the member is dead by
	// the time the MBR is created.
	res, err := d.MergeRegisters([]*Inst{r1, r2}, cellOf(t, 2), "r1", geom.Point{X: 2000, Y: 1200})
	if err != nil {
		t.Fatalf("merge reusing member name: %v", err)
	}
	if got := d.InstByName("r1"); got != res.MBR {
		t.Fatal("MBR should own the reused name")
	}
}

func TestMergeRejectsOverflowAndFixed(t *testing.T) {
	d, r1, r2 := buildPair(t)
	if _, err := d.MergeRegisters([]*Inst{r1, r2}, cellOf(t, 1), "m", geom.Point{}); err == nil {
		t.Fatal("2 bits into 1-bit cell must fail")
	}
	r1.Fixed = true
	if _, err := d.MergeRegisters([]*Inst{r1, r2}, cellOf(t, 2), "m", geom.Point{}); err == nil {
		t.Fatal("fixed register must not merge")
	}
}

func TestRemoveInstCleansNets(t *testing.T) {
	d, r1, _ := buildPair(t)
	dnet := d.Net(d.DPin(r1, 0).Net)
	d.RemoveInst(r1)
	if d.Inst(r1.ID) != nil {
		t.Fatal("instance should be dead")
	}
	for _, s := range dnet.Sinks {
		if d.Pin(s).Inst == r1.ID {
			t.Fatal("dead pin still on net")
		}
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveNet(t *testing.T) {
	d := newTestDesign()
	n := d.AddNet("n", false)
	if err := d.RemoveNet(n); err != nil {
		t.Fatal(err)
	}
	if d.Net(n.ID) != nil {
		t.Fatal("net should be dead")
	}
	r, _ := d.AddRegister("r", cellOf(t, 1), geom.Point{})
	n2 := d.AddNet("n2", false)
	d.Connect(d.DPin(r, 0), n2)
	if err := d.RemoveNet(n2); err == nil {
		t.Fatal("connected net must not be removable")
	}
}

func TestResizeRegister(t *testing.T) {
	d, r1, _ := buildPair(t)
	cells := testLib.CellsOfWidth(testClass(), 1)
	x4 := cells[len(cells)-1]
	if x4 == r1.RegCell {
		t.Fatal("test needs a different drive")
	}
	oldNet := d.DPin(r1, 0).Net
	if err := d.ResizeRegister(r1, x4); err != nil {
		t.Fatal(err)
	}
	if r1.RegCell != x4 {
		t.Fatal("cell not swapped")
	}
	if d.DPin(r1, 0).Net != oldNet {
		t.Fatal("connectivity must be preserved")
	}
	if d.ClockPin(r1).Cap != x4.ClkCap {
		t.Fatal("clock pin cap must update")
	}
	// Wrong width rejected.
	if err := d.ResizeRegister(r1, cellOf(t, 2)); err == nil {
		t.Fatal("resize across widths must fail")
	}
}

func TestMergePreservesTotalConnectivity(t *testing.T) {
	d, r1, r2 := buildPair(t)
	netsBefore := d.NumNets()
	res, err := d.MergeRegisters([]*Inst{r1, r2}, cellOf(t, 2), "m", geom.Point{X: 2000, Y: 1200})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumNets() != netsBefore {
		t.Fatalf("net count changed: %d → %d", netsBefore, d.NumNets())
	}
	// Every data net still has exactly one driver and one sink.
	d.Nets(func(n *Net) {
		if n.IsClock {
			return
		}
		if strings.HasPrefix(n.Name, "d_") || strings.HasPrefix(n.Name, "q_") {
			if n.Driver == NoID || len(n.Sinks) != 1 {
				t.Errorf("net %q: driver=%v sinks=%d", n.Name, n.Driver, len(n.Sinks))
			}
		}
	})
	_ = res
}

func TestValidateCatchesCorruption(t *testing.T) {
	d, r1, _ := buildPair(t)
	// Corrupt: point a net's driver at a dead pin's instance.
	q := d.QPin(r1, 0)
	net := d.Net(q.Net)
	d.RemoveInst(r1)
	net.Driver = q.ID // reattach dangling driver
	q.Net = net.ID
	if err := d.Validate(); err == nil {
		t.Fatal("Validate must catch driver on dead instance")
	}
}

func TestTotalAreaAndCounts(t *testing.T) {
	d, r1, r2 := buildPair(t)
	area := d.TotalArea()
	if area <= 0 {
		t.Fatal("area must be positive")
	}
	wantDrop := r1.Area() + r2.Area()
	res, err := d.MergeRegisters([]*Inst{r1, r2}, cellOf(t, 2), "m", geom.Point{})
	if err != nil {
		t.Fatal(err)
	}
	got := d.TotalArea()
	if got != area-wantDrop+res.MBR.Area() {
		t.Fatalf("area bookkeeping: %d want %d", got, area-wantDrop+res.MBR.Area())
	}
	if d.NumInsts() != 5 { // 4 ports + 1 MBR
		t.Fatalf("NumInsts = %d want 5", d.NumInsts())
	}
}

// TestNumInstsTracksLiveCount checks the live-instance counter against a
// walk over every instance after random adds, removes, merges and splits,
// and after a JSON round trip.
func TestNumInstsTracksLiveCount(t *testing.T) {
	walk := func(d *Design) int {
		n := 0
		d.Insts(func(*Inst) { n++ })
		return n
	}
	d, r1, _ := buildPair(t)
	clk, rst := d.Net(d.ClockNet(r1)), d.Net(d.FindPin(r1, PinReset, 0).Net)
	rng := rand.New(rand.NewSource(7))
	var ops [4]int
	for step := 0; step < 400; step++ {
		regs := d.Registers()
		switch op := rng.Intn(4); {
		case op == 0 || len(regs) < 2:
			r, err := d.AddRegister(fmt.Sprintf("add%d", step), cellOf(t, 1),
				geom.Point{X: rng.Int63n(90000), Y: 1200})
			if err != nil {
				t.Fatal(err)
			}
			d.Connect(d.ClockPin(r), clk)
			d.Connect(d.FindPin(r, PinReset, 0), rst)
			ip, err := d.AddPort(fmt.Sprintf("in%d", step), true, geom.Point{})
			if err != nil {
				t.Fatal(err)
			}
			dn := d.AddNet(fmt.Sprintf("d%d", step), false)
			d.Connect(d.OutPin(ip), dn)
			d.Connect(d.DPin(r, 0), dn)
			ops[0]++
		case op == 1:
			d.RemoveInst(regs[rng.Intn(len(regs))])
			ops[1]++
		case op == 2:
			a, b := regs[rng.Intn(len(regs))], regs[rng.Intn(len(regs))]
			if a == b || a.Bits()+b.Bits() > 4 {
				continue
			}
			cells := testLib.CellsOfWidth(testClass(), a.Bits()+b.Bits())
			if len(cells) == 0 {
				continue
			}
			if _, err := d.MergeRegisters([]*Inst{a, b}, cells[0],
				fmt.Sprintf("m%d", step), a.Pos); err != nil {
				t.Fatal(err)
			}
			ops[2]++
		default:
			r := regs[rng.Intn(len(regs))]
			if r.Bits() < 2 {
				continue
			}
			if _, err := d.SplitRegister(r, cellOf(t, 1)); err != nil {
				t.Fatal(err)
			}
			ops[3]++
		}
		if got, want := d.NumInsts(), walk(d); got != want {
			t.Fatalf("step %d: NumInsts = %d, walk counts %d", step, got, want)
		}
	}
	for k, n := range ops {
		if n == 0 {
			t.Fatalf("op %d (add/remove/merge/split) never ran: %v", k, ops)
		}
	}
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	rd, err := ReadJSON(&buf, testLib)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rd.NumInsts(), walk(rd); got != want || got != d.NumInsts() {
		t.Fatalf("after round trip: NumInsts = %d, walk counts %d, source has %d", got, want, d.NumInsts())
	}
}

func TestMarginalDelayPerDBU(t *testing.T) {
	ts := TimingSpec{WireCapPerDBU: 0.0002, WireDelayPerDBU: 0.01}
	got := ts.MarginalDelayPerDBU(6.0)
	want := 0.01 + 0.0002*6.0
	if got != want {
		t.Fatalf("MarginalDelayPerDBU = %g want %g", got, want)
	}
}
