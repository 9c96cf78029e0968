package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/lib"
	"repro/internal/lp"
)

// placeLP is the §4.2 linear program as the paper states it, kept as the
// oracle for hpwlOptimum: corner variables x, y bounded by the region, and
// per pin four helper variables linearizing the max/min terms of its net's
// HPWL. It returns the optimal objective, the summed HPWL.
func placeLP(t *testing.T, terms []pinTerm, region geom.Rect) float64 {
	t.Helper()
	prob := lp.New(lp.Minimize)
	x := prob.AddVar(float64(region.Lo.X), float64(region.Hi.X), 0, "x")
	y := prob.AddVar(float64(region.Lo.Y), float64(region.Hi.Y), 0, "y")
	negInf, posInf := math.Inf(-1), math.Inf(1)
	for _, j := range terms {
		hx := prob.AddVar(negInf, posInf, 1, "hx")
		lx := prob.AddVar(negInf, posInf, -1, "lx")
		hy := prob.AddVar(negInf, posInf, 1, "hy")
		ly := prob.AddVar(negInf, posInf, -1, "ly")
		// hx ≥ box.Hi.X ; hx ≥ x + dx  (so hx = max at optimum)
		prob.AddConstraint([]lp.Term{{Var: hx, Coef: 1}}, lp.GE, float64(j.box.Hi.X))
		prob.AddConstraint([]lp.Term{{Var: hx, Coef: 1}, {Var: x, Coef: -1}}, lp.GE, float64(j.off.DX))
		// lx ≤ box.Lo.X ; lx ≤ x + dx
		prob.AddConstraint([]lp.Term{{Var: lx, Coef: 1}}, lp.LE, float64(j.box.Lo.X))
		prob.AddConstraint([]lp.Term{{Var: lx, Coef: 1}, {Var: x, Coef: -1}}, lp.LE, float64(j.off.DX))
		prob.AddConstraint([]lp.Term{{Var: hy, Coef: 1}}, lp.GE, float64(j.box.Hi.Y))
		prob.AddConstraint([]lp.Term{{Var: hy, Coef: 1}, {Var: y, Coef: -1}}, lp.GE, float64(j.off.DY))
		prob.AddConstraint([]lp.Term{{Var: ly, Coef: 1}}, lp.LE, float64(j.box.Lo.Y))
		prob.AddConstraint([]lp.Term{{Var: ly, Coef: 1}, {Var: y, Coef: -1}}, lp.LE, float64(j.off.DY))
	}
	sol, err := prob.Solve()
	if err != nil {
		t.Fatalf("lp: %v", err)
	}
	if sol.Status != lp.Optimal {
		t.Fatalf("lp status %v", sol.Status)
	}
	return sol.Objective
}

// termsHPWL is the summed HPWL with the corner at p.
func termsHPWL(terms []pinTerm, p geom.Point) int64 {
	var sum int64
	for _, t := range terms {
		px, py := p.X+t.off.DX, p.Y+t.off.DY
		sum += max(t.box.Hi.X, px) - min(t.box.Lo.X, px)
		sum += max(t.box.Hi.Y, py) - min(t.box.Lo.Y, py)
	}
	return sum
}

// checkClosedForm draws a random placement instance from seed — n pin
// terms with boxes and offsets within ±span, and a region that is a single
// point when point is set — and requires hpwlOptimum's point to lie in the
// region with an HPWL equal to the LP optimum.
func checkClosedForm(t *testing.T, seed int64, n uint8, span uint16, point bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := int64(span)%100000 + 1
	coord := func() int64 { return rng.Int63n(2*s+1) - s }
	terms := make([]pinTerm, int(n)%32+1)
	for i := range terms {
		a := geom.Point{X: coord(), Y: coord()}
		b := geom.Point{X: coord(), Y: coord()}
		terms[i] = pinTerm{
			off: lib.PinOffset{DX: rng.Int63n(s + 1), DY: rng.Int63n(s + 1)},
			box: geom.BoundingBox([]geom.Point{a, b}),
		}
	}
	lo := geom.Point{X: coord(), Y: coord()}
	hi := lo
	if !point {
		hi = geom.Point{X: lo.X + rng.Int63n(s+1), Y: lo.Y + rng.Int63n(s+1)}
	}
	region := geom.Rect{Lo: lo, Hi: hi}

	p := hpwlOptimum(terms, region)
	if !region.Contains(p) {
		t.Fatalf("closed-form point %v outside region %v", p, region)
	}
	got := float64(termsHPWL(terms, p))
	want := placeLP(t, terms, region)
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("closed-form HPWL %.9g at %v != LP optimum %.9g (region %v, %d terms)",
			got, p, want, region, len(terms))
	}
}

// TestPlaceMBRClosedFormMatchesLP sweeps checkClosedForm over fixed seeds.
func TestPlaceMBRClosedFormMatchesLP(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		checkClosedForm(t, seed, uint8(seed), uint16(seed*397), seed%5 == 0)
	}
}

// FuzzPlaceMBRClosedForm fuzzes the §4.2 closed form against the LP it
// replaces: random boxes, offsets and regions, single-point regions
// included.
func FuzzPlaceMBRClosedForm(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(0), true)
	f.Add(int64(2), uint8(3), uint16(1000), false)
	f.Add(int64(3), uint8(31), uint16(65535), false)
	f.Add(int64(4), uint8(16), uint16(40000), true)
	f.Fuzz(func(t *testing.T, seed int64, n uint8, span uint16, point bool) {
		checkClosedForm(t, seed, n, span, point)
	})
}
