package main

import (
	"bytes"
	"fmt"

	"repro/internal/bench"
	"repro/internal/flow"
	"repro/internal/lib"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/scan"
)

// input is one generated design as the program receives it: design JSON and
// scan-plan JSON, exactly what `mbrcompose -design` and a server tenant
// read.
type input struct {
	specSeed int64
	design   []byte
	scan     []byte
}

// designSeed derives the i-th design's generator seed from the run seed,
// so every seed gives its own family of designs.
func designSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// makeInput generates the profile at the scale with bench.Spec.Seed
// overridden and serializes it; it also returns the generated design. It
// runs outside every timed window.
func makeInput(profile string, scale int, specSeed int64, tr *tracer) (*input, *netlist.Design, error) {
	spec, ok := bench.ProfileByName(profile, bench.ProfileOpts{Scale: scale})
	if !ok {
		return nil, nil, fmt.Errorf("unknown profile %q", profile)
	}
	spec.Seed = specSeed
	var res *bench.Result
	if _, err := tr.do("bench.Generate", 0, 0, func() (err error) {
		res, err = bench.Generate(spec)
		return err
	}); err != nil {
		return nil, nil, fmt.Errorf("generate %s seed %d: %w", profile, specSeed, err)
	}
	in := &input{specSeed: specSeed}
	var db, sb bytes.Buffer
	if err := res.Design.WriteJSON(&db); err != nil {
		return nil, nil, fmt.Errorf("encode design: %w", err)
	}
	if err := res.Plan.WriteJSON(&sb, res.Design); err != nil {
		return nil, nil, fmt.Errorf("encode scan plan: %w", err)
	}
	in.design, in.scan = db.Bytes(), sb.Bytes()
	return in, res.Design, nil
}

// decode reads the input's JSON the way `mbrcompose -design -scan` does.
func decode(in *input, tr *tracer, op int64) (*netlist.Design, *scan.Plan, error) {
	var d *netlist.Design
	var plan *scan.Plan
	if _, err := tr.do("netlist.ReadJSON", 0, op, func() (err error) {
		d, err = netlist.ReadJSON(bytes.NewReader(in.design), lib.MustGenerateDefault())
		return err
	}); err != nil {
		return nil, nil, fmt.Errorf("decode design: %w", err)
	}
	if _, err := tr.do("scan.ReadJSON", 0, op, func() (err error) {
		plan, err = scan.ReadJSON(bytes.NewReader(in.scan), d)
		return err
	}); err != nil {
		return nil, nil, fmt.Errorf("decode scan plan: %w", err)
	}
	return d, plan, nil
}

// sessionConfig is the flow configuration of the library workloads.
func sessionConfig(workers int) flow.Config {
	cfg := flow.DefaultConfig()
	cfg.Workers = workers
	return cfg
}

// connectedBits counts register bits with a connected D or Q pin: the bits
// composition and decomposition must conserve (tied-off slots of
// incomplete MBRs are not counted).
func connectedBits(d *netlist.Design) int {
	n := 0
	for _, in := range d.Registers() {
		for b := 0; b < in.Bits(); b++ {
			dp, qp := d.DPin(in, b), d.QPin(in, b)
			if (dp != nil && dp.Net != netlist.NoID) || (qp != nil && qp.Net != netlist.NoID) {
				n++
			}
		}
	}
	return n
}

// checkSession runs the delta-path-independent output checks on a
// session's final state and returns its canonical Table 1 row: the
// placement is legal, the scan plan is consistent, register bits are
// conserved, and a from-scratch rebuild of every engine measures exactly
// what the retained engines measure.
func checkSession(s *flow.Session, bitsBefore int) (flow.Metrics, error) {
	retained, err := s.MeasureCanonical()
	if err != nil {
		return retained, fmt.Errorf("check: retained canonical measure: %w", err)
	}
	d := s.Design()
	if v := place.CheckLegal(d); len(v) > 0 {
		return retained, fmt.Errorf("check: %d placement violations, first: %s", len(v), v[0])
	}
	if p := s.Plan(); p != nil {
		if err := p.Validate(d); err != nil {
			return retained, fmt.Errorf("check: scan plan: %w", err)
		}
	}
	if got := connectedBits(d); got != bitsBefore {
		return retained, fmt.Errorf("check: connected register bits %d, want %d", got, bitsBefore)
	}
	s.Invalidate()
	rebuilt, err := s.MeasureCanonical()
	if err != nil {
		return retained, fmt.Errorf("check: rebuilt canonical measure: %w", err)
	}
	if a, b := retained.Canonical(), rebuilt.Canonical(); a != b {
		return retained, fmt.Errorf("check: retained engines diverge from a rebuild:\nretained:\n%srebuilt:\n%s", a, b)
	}
	return retained, nil
}

// quality is the Table 1 slice the benchmark reports. WNS is stored as the
// magnitude of the worst negative slack, so that every quality figure is a
// positive violation or cost and lower is better.
type quality struct {
	regs, clkCapPF, wnsPS, tnsNS, overflow, wlSigMM float64
}

func qualityOf(m flow.Metrics) quality {
	return quality{
		regs: float64(m.TotalRegs), clkCapPF: m.ClkCapPF, wnsPS: -m.WNSPS,
		tnsNS: m.TNSNS, overflow: float64(m.OverflowEdges), wlSigMM: m.WLSigMM,
	}
}

// meanQuality averages rows field by field.
func meanQuality(rows []quality) quality {
	var q quality
	for _, r := range rows {
		q.regs += r.regs
		q.clkCapPF += r.clkCapPF
		q.wnsPS += r.wnsPS
		q.tnsNS += r.tnsNS
		q.overflow += r.overflow
		q.wlSigMM += r.wlSigMM
	}
	n := float64(len(rows))
	if n == 0 {
		return q
	}
	return quality{q.regs / n, q.clkCapPF / n, q.wnsPS / n, q.tnsNS / n, q.overflow / n, q.wlSigMM / n}
}

// put stores the quality metrics into an end-to-end metric map.
func (q quality) put(m map[string]float64) {
	m["regs_after"] = q.regs
	m["clk_cap_pf"] = q.clkCapPF
	m["wns_ps"] = q.wnsPS
	m["tns_ns"] = q.tnsNS
	m["overflow_edges"] = q.overflow
	m["wl_sig_mm"] = q.wlSigMM
}
