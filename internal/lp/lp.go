// Package lp implements a small, dependency-free linear programming solver:
// a dense-tableau, two-phase primal simplex with a Dantzig pivot rule that
// falls back to Bland's rule to guarantee termination on degenerate bases.
//
// The solver supports minimization and maximization, ≤ / = / ≥ row types and
// per-variable bounds (including free and semi-bounded variables, which are
// handled by shifting and variable splitting). It is sized for the problems
// that appear in MBR composition: set-partitioning LP relaxations with tens
// of rows and up to a few thousand columns.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Sense selects the optimization direction of a Problem.
type Sense int

// Optimization directions.
const (
	Minimize Sense = iota
	Maximize
)

// Op is a constraint relation.
type Op int

// Constraint relations.
const (
	LE Op = iota // ≤
	GE           // ≥
	EQ           // =
)

func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return "?"
}

// Status describes the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	}
	return "unknown"
}

// Term is one entry of a sparse constraint row: Coef * x[Var].
type Term struct {
	Var  int
	Coef float64
}

type constraint struct {
	terms []Term
	op    Op
	rhs   float64
}

// Inf is the bound value representing "unbounded" in AddVar.
var Inf = math.Inf(1)

// Problem is a linear program under construction. The zero value is not
// usable; call New.
type Problem struct {
	sense Sense
	cost  []float64
	lo    []float64
	hi    []float64
	names []string
	rows  []constraint
}

// New returns an empty problem with the given optimization sense.
func New(sense Sense) *Problem {
	return &Problem{sense: sense}
}

// NumVars returns the number of variables added so far.
func (p *Problem) NumVars() int { return len(p.cost) }

// NumRows returns the number of constraints added so far.
func (p *Problem) NumRows() int { return len(p.rows) }

// AddVar adds a variable with bounds [lo, hi] and objective coefficient
// cost, returning its index. Use -Inf / Inf for unbounded sides. The name is
// only used in error messages and may be empty.
func (p *Problem) AddVar(lo, hi, cost float64, name string) int {
	if lo > hi {
		panic(fmt.Sprintf("lp: variable %q has lo %g > hi %g", name, lo, hi))
	}
	p.cost = append(p.cost, cost)
	p.lo = append(p.lo, lo)
	p.hi = append(p.hi, hi)
	p.names = append(p.names, name)
	return len(p.cost) - 1
}

// SetBounds tightens or replaces the bounds of variable v. It is the
// branching primitive used by the ILP solver.
func (p *Problem) SetBounds(v int, lo, hi float64) {
	if lo > hi {
		panic(fmt.Sprintf("lp: SetBounds(%d) lo %g > hi %g", v, lo, hi))
	}
	p.lo[v], p.hi[v] = lo, hi
}

// Bounds returns the current bounds of variable v.
func (p *Problem) Bounds(v int) (lo, hi float64) { return p.lo[v], p.hi[v] }

// AddConstraint adds the row Σ terms (op) rhs. Terms referencing the same
// variable more than once are summed. Variable indices must already exist.
func (p *Problem) AddConstraint(terms []Term, op Op, rhs float64) {
	merged := make(map[int]float64, len(terms))
	for _, t := range terms {
		if t.Var < 0 || t.Var >= len(p.cost) {
			panic(fmt.Sprintf("lp: constraint references unknown variable %d", t.Var))
		}
		merged[t.Var] += t.Coef
	}
	row := constraint{op: op, rhs: rhs}
	for v, c := range merged {
		if c != 0 {
			row.terms = append(row.terms, Term{v, c})
		}
	}
	p.rows = append(p.rows, row)
}

// Solution is the result of solving a Problem.
type Solution struct {
	Status    Status
	Objective float64
	// X holds a value for every variable of the problem (in AddVar order).
	// Only meaningful when Status == Optimal.
	X []float64
}

const (
	eps      = 1e-9
	degenTol = 1e-10
)

// ErrNoProblem is returned when Solve is called on a problem with no
// variables.
var ErrNoProblem = errors.New("lp: problem has no variables")

// Solve optimizes the problem and returns the solution. The problem itself
// is not modified and may be re-solved after bound changes.
func (p *Problem) Solve() (*Solution, error) {
	if len(p.cost) == 0 {
		return nil, ErrNoProblem
	}
	t, err := p.build()
	if err != nil {
		return &Solution{Status: Infeasible}, nil
	}
	status := t.phase1()
	if status != Optimal {
		return &Solution{Status: status}, nil
	}
	status = t.phase2()
	if status == Unbounded || status == IterLimit {
		return &Solution{Status: status}, nil
	}
	x := t.extract(p)
	obj := 0.0
	for i, c := range p.cost {
		obj += c * x[i]
	}
	return &Solution{Status: Optimal, Objective: obj, X: x}, nil
}

// internalVar maps a user variable to its standard-form representation:
// x = shift + plus - minus, where plus/minus are column indices (minus < 0
// when not split).
type internalVar struct {
	plus  int
	minus int // -1 if unused
	shift float64
}

// tableau is the standard-form simplex tableau:
//
//	minimize  c·y   s.t.  A y = b,  y ≥ 0
//
// with b ≥ 0 after row normalization. Artificial columns occupy indices
// [nStruct+nSlack, nCols).
type tableau struct {
	m, n     int // rows, total columns (incl. slack + artificial)
	nReal    int // structural + slack columns (excludes artificials)
	a        [][]float64
	b        []float64
	c        []float64 // phase-2 objective over all columns
	basis    []int     // basis[i] = column basic in row i
	vars     []internalVar
	maxIters int
}

// build converts the problem into standard form.
//
// Bounds are handled as follows: a variable with finite lo is shifted so the
// internal variable is ≥ 0; a finite hi becomes an extra ≤ row; a variable
// free on both sides is split into the difference of two non-negative
// columns.
func (p *Problem) build() (*tableau, error) {
	nv := len(p.cost)
	vars := make([]internalVar, nv)
	ncols := 0
	type upRow struct {
		col int
		rhs float64
	}
	var upper []upRow
	for i := 0; i < nv; i++ {
		lo, hi := p.lo[i], p.hi[i]
		switch {
		case !math.IsInf(lo, -1):
			vars[i] = internalVar{plus: ncols, minus: -1, shift: lo}
			ncols++
			if !math.IsInf(hi, 1) {
				if hi-lo < -eps {
					return nil, errors.New("lp: empty variable domain")
				}
				upper = append(upper, upRow{vars[i].plus, hi - lo})
			}
		case !math.IsInf(hi, 1):
			// x ≤ hi, unbounded below: substitute x = hi - x', x' ≥ 0.
			// Represent as shift=hi with a negated column via minus-only
			// split: x = hi + 0 - x'.
			vars[i] = internalVar{plus: -1, minus: ncols, shift: hi}
			ncols++
		default:
			vars[i] = internalVar{plus: ncols, minus: ncols + 1, shift: 0}
			ncols += 2
		}
	}

	// Count slacks.
	nslack := 0
	for _, r := range p.rows {
		if r.op != EQ {
			nslack++
		}
	}
	nslack += len(upper)

	m := len(p.rows) + len(upper)
	nReal := ncols + nslack
	t := &tableau{
		m:        m,
		nReal:    nReal,
		vars:     vars,
		maxIters: 50000 + 200*(m+nReal),
	}
	t.a = make([][]float64, m)
	for i := range t.a {
		t.a[i] = make([]float64, nReal) // artificials appended later
	}
	t.b = make([]float64, m)
	t.basis = make([]int, m)
	for i := range t.basis {
		t.basis[i] = -1
	}

	// Structural objective.
	t.c = make([]float64, nReal)
	sign := 1.0
	if p.sense == Maximize {
		sign = -1
	}
	for i := 0; i < nv; i++ {
		c := sign * p.cost[i]
		if vars[i].plus >= 0 {
			t.c[vars[i].plus] += c
		}
		if vars[i].minus >= 0 {
			t.c[vars[i].minus] -= c
		}
	}

	slack := ncols
	// User constraint rows.
	for ri, r := range p.rows {
		rhs := r.rhs
		for _, term := range r.terms {
			v := vars[term.Var]
			rhs -= term.Coef * v.shift
			if v.plus >= 0 {
				t.a[ri][v.plus] += term.Coef
			}
			if v.minus >= 0 {
				t.a[ri][v.minus] -= term.Coef
			}
		}
		op := r.op
		// Normalize to rhs ≥ 0.
		if rhs < 0 {
			for j := range t.a[ri][:nReal] {
				t.a[ri][j] = -t.a[ri][j]
			}
			rhs = -rhs
			switch op {
			case LE:
				op = GE
			case GE:
				op = LE
			}
		}
		t.b[ri] = rhs
		switch op {
		case LE:
			t.a[ri][slack] = 1
			t.basis[ri] = slack
			slack++
		case GE:
			t.a[ri][slack] = -1
			slack++
		case EQ:
			// artificial added in phase1
		}
	}
	// Upper-bound rows: x_col ≤ rhs (rhs ≥ 0 by construction).
	for k, u := range upper {
		ri := len(p.rows) + k
		t.a[ri][u.col] = 1
		t.b[ri] = u.rhs
		t.a[ri][slack] = 1
		t.basis[ri] = slack
		slack++
	}
	return t, nil
}

// phase1 installs artificial variables in rows without a basic column and
// minimizes their sum. Returns Optimal when a feasible basis was found.
func (t *tableau) phase1() Status {
	needArt := 0
	for i := 0; i < t.m; i++ {
		if t.basis[i] == -1 {
			needArt++
		}
	}
	if needArt == 0 {
		return Optimal
	}
	t.n = t.nReal + needArt
	art := t.nReal
	artObj := make([]float64, t.n)
	for i := 0; i < t.m; i++ {
		row := make([]float64, t.n)
		copy(row, t.a[i])
		t.a[i] = row
		if t.basis[i] == -1 {
			t.a[i][art] = 1
			t.basis[i] = art
			artObj[art] = 1
			art++
		}
	}
	// Extend phase-2 cost vector with zeros for artificials.
	c2 := make([]float64, t.n)
	copy(c2, t.c)
	t.c = c2

	status, obj := t.simplex(artObj)
	if status != Optimal {
		return status
	}
	if obj > 1e-7 {
		return Infeasible
	}
	// Drive remaining artificials out of the basis where possible.
	for i := 0; i < t.m; i++ {
		if t.basis[i] >= t.nReal {
			pivoted := false
			for j := 0; j < t.nReal; j++ {
				if math.Abs(t.a[i][j]) > eps {
					t.pivot(i, j)
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Redundant row: the artificial stays basic at value ~0;
				// zero out the row so it cannot affect phase 2.
				for j := 0; j < t.n; j++ {
					if j != t.basis[i] {
						t.a[i][j] = 0
					}
				}
				t.b[i] = 0
			}
		}
	}
	// Forbid artificials from re-entering.
	t.blockArtificials()
	return Optimal
}

// blockArtificials zeroes artificial columns in non-basic rows so the
// phase-2 pricing never selects them.
func (t *tableau) blockArtificials() {
	for j := t.nReal; j < t.n; j++ {
		basicRow := -1
		for i := 0; i < t.m; i++ {
			if t.basis[i] == j {
				basicRow = i
				break
			}
		}
		if basicRow == -1 {
			for i := 0; i < t.m; i++ {
				t.a[i][j] = 0
			}
		}
	}
}

func (t *tableau) phase2() Status {
	if t.n == 0 { // no artificials were needed
		t.n = t.nReal
	}
	status, _ := t.simplex(t.c)
	return status
}

// simplex runs the primal simplex on the current basis with objective obj
// (length t.n). Returns the status and the achieved objective value.
//
// Reduced costs are kept as an explicit row, updated in O(n) per pivot and
// recomputed from the basis every refreshEvery iterations to bound
// numerical drift. This matters: candidate-rich MBR subproblems produce
// LPs with a few dozen rows but thousands of columns, where per-iteration
// O(m·n) pricing dominated the whole composition runtime.
func (t *tableau) simplex(obj []float64) (Status, float64) {
	m, n := t.m, t.n
	const refreshEvery = 256
	cb := make([]float64, m)
	rc := make([]float64, n)
	refresh := func() {
		for i := 0; i < m; i++ {
			cb[i] = obj[t.basis[i]]
		}
		for j := 0; j < n; j++ {
			zj := 0.0
			for i := 0; i < m; i++ {
				if cb[i] != 0 {
					zj += cb[i] * t.a[i][j]
				}
			}
			rc[j] = obj[j] - zj
		}
	}
	refresh()
	blandFrom := t.maxIters / 2
	for iter := 0; iter < t.maxIters; iter++ {
		if iter > 0 && iter%refreshEvery == 0 {
			refresh()
		}
		// Pricing.
		enter := -1
		best := -eps
		for j := 0; j < n; j++ {
			if iter >= blandFrom {
				// Bland: first improving column.
				if rc[j] < -eps {
					enter = j
					break
				}
			} else if rc[j] < best {
				best = rc[j]
				enter = j
			}
		}
		if enter == -1 {
			val := 0.0
			for i := 0; i < m; i++ {
				val += obj[t.basis[i]] * t.b[i]
			}
			return Optimal, val
		}
		// Ratio test.
		leave := -1
		minRatio := math.Inf(1)
		for i := 0; i < m; i++ {
			aij := t.a[i][enter]
			if aij > eps {
				r := t.b[i] / aij
				if r < minRatio-degenTol ||
					(r < minRatio+degenTol && (leave == -1 || t.basis[i] < t.basis[leave])) {
					minRatio = r
					leave = i
				}
			}
		}
		if leave == -1 {
			return Unbounded, 0
		}
		t.pivot(leave, enter)
		// Reduced-cost update: after the pivot, row `leave` holds the
		// entering column's updated coefficients; rcⱼ ← rcⱼ − rc_enter·āₗⱼ.
		f := rc[enter]
		if f != 0 {
			rowL := t.a[leave]
			for j := 0; j < n; j++ {
				rc[j] -= f * rowL[j]
			}
			rc[enter] = 0 // exact
		}
	}
	return IterLimit, 0
}

// pivot makes column enter basic in row leave.
func (t *tableau) pivot(leave, enter int) {
	piv := t.a[leave][enter]
	inv := 1.0 / piv
	row := t.a[leave]
	for j := 0; j < t.n; j++ {
		row[j] *= inv
	}
	t.b[leave] *= inv
	row[enter] = 1 // exact
	for i := 0; i < t.m; i++ {
		if i == leave {
			continue
		}
		f := t.a[i][enter]
		if f == 0 {
			continue
		}
		ai := t.a[i]
		for j := 0; j < t.n; j++ {
			ai[j] -= f * row[j]
		}
		ai[enter] = 0 // exact
		t.b[i] -= f * t.b[leave]
	}
	t.basis[leave] = enter
}

// extract recovers user-variable values from the final basis.
func (t *tableau) extract(p *Problem) []float64 {
	colVal := make([]float64, t.n)
	for i := 0; i < t.m; i++ {
		colVal[t.basis[i]] = t.b[i]
	}
	x := make([]float64, len(p.cost))
	for i, v := range t.vars {
		val := v.shift
		if v.plus >= 0 {
			val += colVal[v.plus]
		}
		if v.minus >= 0 {
			val -= colVal[v.minus]
		}
		x[i] = val
	}
	return x
}
