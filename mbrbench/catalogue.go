package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// defaultSeed is the seed the benchmark runs without --seed; heldOutSeed
// is the second seed every check must also pass on, so a claim is shown
// on inputs the change was not tuned against.
const (
	defaultSeed = 1
	heldOutSeed = 2
)

// metricDef is one reported metric; the lists below must match
// BENCHMARK.json (the smoke test compares them).
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"compose_s", "s", "lower"},
	{"run_s", "s", "lower"},
	{"round_ms", "ms", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p95_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"success_rate", "ratio", "higher"},
	{"peak_heap_mb", "MB", "lower"},
	{"regs_after", "count", "lower"},
	{"clk_cap_pf", "pF", "lower"},
	{"wns_ps", "ps", "lower"},
	{"tns_ns", "ns", "lower"},
	{"overflow_edges", "count", "lower"},
	{"wl_sig_mm", "mm", "lower"},
}

var perLayer = []metricDef{
	{"bench.generate_ms", "ms", "lower"},
	{"netlist.read_json_ms", "ms", "lower"},
	{"netlist.merge_ms", "ms", "lower"},
	{"scan.apply_merge_ms", "ms", "lower"},
	{"place.legalize_incr_ms", "ms", "lower"},
	{"sta.full_ms", "ms", "lower"},
	{"sta.incr_ms", "ms", "lower"},
	{"sta.rebuilds", "count", "lower"},
	{"sta.delta_ratio", "ratio", "higher"},
	{"compatgraph.build_ms", "ms", "lower"},
	{"compatgraph.update_ms", "ms", "lower"},
	{"compatgraph.delta_ratio", "ratio", "higher"},
	{"partition.subgraphs_ms", "ms", "lower"},
	{"core.inspect_ms", "ms", "lower"},
	{"core.candidates", "count", "lower"},
	{"core.truncated_subgraphs", "count", "lower"},
	{"ilp.solve_ms", "ms", "lower"},
	{"ilp.nodes", "count", "lower"},
	{"core.compose_ms", "ms", "lower"},
	{"core.memo_reuse_ratio", "ratio", "higher"},
	{"core.mbrs", "count", "higher"},
	{"core.legal_moved", "count", "lower"},
	{"core.legal_failed", "count", "lower"},
	{"cts.attach_ms", "ms", "lower"},
	{"cts.update_ms", "ms", "lower"},
	{"cts.canonicalize_ms", "ms", "lower"},
	{"cts.delta_ratio", "ratio", "higher"},
	{"route.overflow_ms", "ms", "lower"},
	{"route.delta_ratio", "ratio", "higher"},
	{"metrics.aggregates_ms", "ms", "lower"},
	{"flow.apply_ms", "ms", "lower"},
	{"flow.measure_ms", "ms", "lower"},
	{"flow.compose_pass_ms", "ms", "lower"},
	{"flow.measure_canonical_ms", "ms", "lower"},
	{"flow.decompose_pass_ms", "ms", "lower"},
	{"flow.restore_pass_ms", "ms", "lower"},
	{"serve.apply_ms", "ms", "lower"},
	{"serve.measure_ms", "ms", "lower"},
	{"serve.http_ms", "ms", "lower"},
	{"engine.steady_rebuilds", "count", "lower"},
	{"runtime.alloc_mb", "MB", "lower"},
	{"runtime.gc_cpu_share", "ratio", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// ledger is a traced run's per-layer result: a value for every measured
// metric and, for every other one, why it was not measured. Unmeasured
// metrics are reported as 0 on the result line and listed here.
type ledger struct {
	spans       []span
	layers      map[string]layerStat
	vals        map[string]float64
	notMeasured map[string]string
}

// newLedger starts a traced run's ledger from its finished spans.
func newLedger(spans []span) *ledger {
	return &ledger{
		spans: spans, layers: aggregate(spans),
		vals: map[string]float64{}, notMeasured: map[string]string{},
	}
}

func (l *ledger) set(name string, v float64) { l.vals[name] = v }

// fromSpans sets a metric to the mean self time per call of the spans
// aggregated under key ("name" or "name/kind"), when there are any.
func (l *ledger) fromSpans(name, key string) {
	if s, ok := l.layers[key]; ok && s.Count > 0 {
		l.vals[name] = s.meanMS()
	}
}

// fromSpansTotal sets a metric to the total self time of the spans under
// key, for layers one op calls many times.
func (l *ledger) fromSpansTotal(name, key string) {
	if s, ok := l.layers[key]; ok && s.Count > 0 {
		l.vals[name] = float64(s.SelfNS) / 1e6
	}
}

// why records the reason for metrics the workload does not measure.
func (l *ledger) why(reason string, names ...string) {
	for _, n := range names {
		l.notMeasured[n] = reason
	}
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// ledgerFile is the per-layer file a traced run writes next to its spans.
type ledgerFile struct {
	Workload    string               `json:"workload"`
	Seed        int64                `json:"seed"`
	Host        map[string]any       `json:"host"`
	Metrics     map[string]float64   `json:"metrics"`
	NotMeasured map[string]string    `json:"not_measured"`
	Layers      map[string]layerStat `json:"layers"`
	SpanFile    string               `json:"span_file"`
}

// writeTrace writes the span file and the ledger of a traced run. Every
// per-layer metric without a value gets a not-measured reason.
func writeTrace(c config, l *ledger) error {
	for _, d := range perLayer {
		if _, ok := l.vals[d.name]; !ok && l.notMeasured[d.name] == "" {
			l.notMeasured[d.name] = "the workload makes no call into this layer"
		}
	}
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(c.outDir, fmt.Sprintf("%s-seed%d", c.workload, c.seed))
	if err := writeSpans(base+".spans.jsonl", l.spans); err != nil {
		return err
	}
	lf := ledgerFile{
		Workload: c.workload, Seed: c.seed,
		Host: map[string]any{
			"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		},
		Metrics: l.vals, NotMeasured: l.notMeasured, Layers: l.layers,
		SpanFile: base + ".spans.jsonl",
	}
	data, err := json.MarshalIndent(lf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".ledger.json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	missing := make([]string, 0, len(l.notMeasured))
	for n := range l.notMeasured {
		missing = append(missing, n)
	}
	sort.Strings(missing)
	fmt.Fprintf(os.Stderr, "mbrbench: %d spans, ledger %s.ledger.json; not measured: %v\n",
		len(l.spans), base, missing)
	return nil
}
