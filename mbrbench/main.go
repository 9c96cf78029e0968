// Command mbrbench is the repository's benchmark. It times the path the
// composition server runs — flow.Session over the retained engines and
// core.Engine — on three workloads, checks every output, and prints one
// JSON result line:
//
//	flow      D1 designs through the paper's one-shot flow (compose passes,
//	          then the canonical measurement)
//	eco       two closed-loop HTTP clients streaming parametric ECO edits and
//	          measurements into two server sessions
//	bankloop  a D4 session cycling decompose → restore → compose → measure
//
// Usage, from the repository root:
//
//	bash mbrbench/run.sh --workload flow --seed 1 --seconds 16 --trace 0
//	bash mbrbench/run.sh --workload all
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// untraced and again traced, writes the spans and the per-layer ledger to
// --out, and reports the per-layer metrics. NOTES.md defines every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// config is one benchmark invocation. The size fields default from the
// workload and --seconds; the smoke test shrinks them.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	outDir   string

	profile string
	scale   int
	workers int
	designs int // flow, bankloop: designs per run
	setups  int // eco: set-ups of the session pair; bankloop: set-ups per design
	batches int // eco: edit batches (ops) per client
	rounds  int // bankloop: bank/debank rounds per design
}

// defaults fills the size fields for the workload at the run length. The
// work is fixed per (seed, seconds), so every quality figure is a pure
// function of the seed; the constants size the timed phase to about
// --seconds on the 2-CPU reference host.
func (c *config) defaults() error {
	secs := max(1, c.seconds)
	switch c.workload {
	case "flow":
		c.profile, c.scale, c.workers = "D1", 3, 2
		c.designs = max(1, secs/4)
	case "eco":
		c.profile, c.scale, c.workers = "D1", 5, 1
		c.setups = 2
		c.batches = max(ecoSessions, 25*secs)
		if c.trace {
			c.batches /= 2 // the traced run replays the traffic four more times
		}
	case "bankloop":
		c.profile, c.scale, c.workers = "D4", 5, 2
		c.designs, c.setups = 2, 2
		c.rounds = max(4, secs/2)
	default:
		return fmt.Errorf("unknown workload %q (want flow, eco, bankloop or all)", c.workload)
	}
	return nil
}

// outcome is one workload run: the op accounting, the first failed output
// check, and the metrics.
type outcome struct {
	attempted, failed int
	checkErr          error
	e2e               map[string]float64
	ledger            *ledger
}

func run(c config) (*outcome, error) {
	switch c.workload {
	case "flow":
		return runFlow(c)
	case "eco":
		return runECO(c)
	case "bankloop":
		return runBankloop(c)
	}
	return nil, fmt.Errorf("unknown workload %q", c.workload)
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report converts an outcome into the result line: the end-to-end metrics
// untraced, the per-layer metrics traced. A failed check counts every op
// of the run as failed.
func report(c config, o *outcome) result {
	r := result{Correct: o.checkErr == nil, Attempted: max(1, o.attempted), Failed: o.failed}
	if !r.Correct {
		r.Failed = r.Attempted
	}
	r.Metrics = map[string]metricValue{}
	if c.trace {
		var vals map[string]float64
		if o.ledger != nil {
			vals = o.ledger.vals
		}
		for _, d := range perLayer {
			r.Metrics[d.name] = metricValue{vals[d.name], d.unit}
		}
		return r
	}
	o.e2e["success_rate"] = float64(r.Attempted-r.Failed) / float64(r.Attempted)
	for _, d := range endToEnd {
		r.Metrics[d.name] = metricValue{o.e2e[d.name], d.unit}
	}
	return r
}

func main() {
	var c config
	var trace int
	flag.StringVar(&c.workload, "workload", "all", "flow, eco, bankloop, or all")
	flag.Int64Var(&c.seed, "seed", defaultSeed, "input seed (held-out seed: 2)")
	flag.IntVar(&c.seconds, "seconds", 16, "run length the work is sized to (BENCHMARK.json run_seconds)")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics, span file")
	flag.StringVar(&c.outDir, "out", filepath.Join(".bench_build", "trace"), "directory for span files and ledgers")
	flag.Parse()
	c.trace = trace == 1
	if flag.NArg() > 0 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "mbrbench: host nproc=%d GOMAXPROCS=%d %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	if c.workload == "all" {
		os.Exit(runAll(c, os.Stdout))
	}
	if err := c.defaults(); err != nil {
		fmt.Fprintln(os.Stderr, "mbrbench:", err)
		os.Exit(2)
	}
	o, err := run(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mbrbench:", err)
		os.Exit(1)
	}
	r := report(c, o)
	if o.checkErr != nil {
		fmt.Fprintln(os.Stderr, "mbrbench: output check failed:", o.checkErr)
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mbrbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !r.Correct {
		os.Exit(1)
	}
}

// runAll runs every workload in turn and prints one row per workload with
// every end-to-end metric by name and unit (or, traced, every per-layer
// metric). It returns the exit code: 1 when any workload failed.
func runAll(base config, w io.Writer) int {
	code := 0
	defs := endToEnd
	if base.trace {
		defs = perLayer
	}
	for _, wl := range []string{"flow", "eco", "bankloop"} {
		c := base
		c.workload = wl
		if err := c.defaults(); err != nil {
			fmt.Fprintln(os.Stderr, "mbrbench:", err)
			return 2
		}
		o, err := run(c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mbrbench: %s: %v\n", wl, err)
			code = 1
			continue
		}
		r := report(c, o)
		if !r.Correct {
			fmt.Fprintf(os.Stderr, "mbrbench: %s: output check failed: %v\n", wl, o.checkErr)
			code = 1
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%-8s correct=%t attempted=%d failed=%d", wl, r.Correct, r.Attempted, r.Failed)
		for _, d := range defs {
			fmt.Fprintf(&b, " %s=%.6g[%s]", d.name, r.Metrics[d.name].Value, d.unit)
		}
		fmt.Fprintln(w, b.String())
	}
	return code
}
