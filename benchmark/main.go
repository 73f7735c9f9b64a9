// Command benchmark is the repository's benchmark. It runs one workload
// in-process, times calls into the simulator's public packages from the
// outside, checks every simulated output it produced, and prints each
// metric by name and unit. The last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}
//
// With --trace 0 the metrics are the end-to-end metrics (BENCHMARK.json
// "end_to_end"); with --trace 1 the run is split into an untraced half
// and a traced half, the metrics are the per-layer ones ("per_layer"),
// including the tracing overhead, and a Perfetto-loadable trace is
// written under .bench_build/.
//
// Run it from the repository root (it reads testdata/golden and
// benchmark/baseline.json):
//
//	bash benchmark/run.sh --workload mesh16-uniform --seed 1 --seconds 30 --trace 0
//	go run ./benchmark --workload quick-suite --seed 1 --seconds 30 --trace 1
//
// Workloads: mesh16-uniform (router pipeline hot path), quick-suite
// (cmd/experiments -quick on the harness), daemon-replay (the HTTP
// service with a cold slice and cache-hit replays). Exit status: 0 when
// every output checked out, 1 on any mismatch (the result line still
// prints, with "correct": false), 2 when the benchmark could not run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// goldenSeed is the seed testdata/golden/quick.digests was recorded at.
const goldenSeed = 1

type metricDef struct{ Name, Unit string }

// endToEnd lists the metrics a user of the simulator sees, in output
// order. Every workload reports every one of them; benchmark/baseline.json
// says what each means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
	{"cycles_per_s", "1/s"},
	{"wall_s", "s"},
	{"first_record_ms", "ms"},
	{"op_ms_p50", "ms"},
	{"op_ms_tail", "ms"},
}

// perLayer lists the per-layer metrics of a traced run. A workload that
// does not exercise a layer reports that layer's metrics as 0 (no work,
// no samples).
var perLayer = []metricDef{
	{"noc.new_ms", "ms"},
	{"noc.warmup_cycles", "cycles"},
	{"noc.step_us_p50", "us"},
	{"noc.step_us_tail", "us"},
	{"noc.plain_step_us_p50", "us"},
	{"noc.boundary_step_us_p50", "us"},
	{"noc.allocs_per_kcycle", "count"},
	{"noc.flits_per_cycle", "flits/cycle"},
	{"noc.self_s", "s"},
	{"traffic.next_ns", "ns"},
	{"traffic.next_share", "share"},
	{"traffic.parsec_ns_per_packet", "ns"},
	{"traffic.self_s", "s"},
	{"core.pretrain_ms_p50", "ms"},
	{"core.pretrain_ms_max", "ms"},
	{"core.run_ms_p50", "ms"},
	{"core.run_ms_tail", "ms"},
	{"core.run_s.SECDED", "s"},
	{"core.run_s.EB", "s"},
	{"core.run_s.CP", "s"},
	{"core.run_s.CPD", "s"},
	{"core.run_s.IntelliNoC", "s"},
	{"core.sim_cycles_per_s", "1/s"},
	{"core.self_s", "s"},
	{"rl.qtable_entries", "count"},
	{"harness.pretrain_phase_s", "s"},
	{"harness.run_phase_s", "s"},
	{"harness.critical_path_s", "s"},
	{"harness.utilization", "share"},
	{"harness.attempts_per_job", "count"},
	{"harness.self_s", "s"},
	{"experiments.plan_ms", "ms"},
	{"experiments.assemble_ms", "ms"},
	{"experiments.self_s", "s"},
	{"service.submit_ms_p50", "ms"},
	{"service.hit_stream_ms_p50", "ms"},
	{"service.overhead_ms_p50", "ms"},
	{"service.executed", "count"},
	{"service.cache_hits", "count"},
	{"service.self_s", "s"},
	{"trace.overhead_cycles_per_s", "share"},
	{"trace.overhead_wall_s", "share"},
}

// options is the parsed command line plus where to find the repository.
type options struct {
	Workload string
	Seed     int64
	Budget   time.Duration
	Trace    bool
	// Root is the repository root (testdata/ and benchmark/ live there).
	Root string
	// Out is the directory for temporary stores and trace files.
	Out string
}

// outcome is what a workload hands back: its metrics and the evidence
// that its outputs were right.
type outcome struct {
	Metrics map[string]float64
	Notes   map[string]string // per-metric detail for the human lines
	// IDs are simulated outputs that tracing must not change
	// (fingerprints, payload hashes, flit counts).
	IDs map[string]string
	Ops opCount
	// Problems lists every output mismatch; any entry makes the run
	// incorrect.
	Problems []string
	// Log holds lines for the human-readable report.
	Log []string
}

func newOutcome() *outcome {
	return &outcome{Metrics: make(map[string]float64), Notes: make(map[string]string), IDs: make(map[string]string)}
}

func (o *outcome) set(name string, v float64, note string) {
	o.Metrics[name] = v
	if note != "" {
		o.Notes[name] = note
	}
}

func (o *outcome) setTail(name string, t tail) { o.set(name, t.Value, t.String()) }

func (o *outcome) logf(format string, args ...any) {
	o.Log = append(o.Log, fmt.Sprintf(format, args...))
}

func (o *outcome) fail(format string, args ...any) {
	o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner: one budgeted set of
// measured passes, traced when tr is non-nil.
var workloads = map[string]func(o options, budget time.Duration, tr *tracer) (*outcome, error){
	"mesh16-uniform": func(o options, budget time.Duration, tr *tracer) (*outcome, error) {
		sz := meshFull
		var err error
		if sz.Expect, err = loadMeshExpect(o.Root); err != nil {
			return nil, err
		}
		return runMesh(sz, o.Seed, budget, tr)
	},
	"quick-suite": func(o options, budget time.Duration, tr *tracer) (*outcome, error) {
		return runSuite(quickFull(o.Seed), o.Root, budget, tr)
	},
	"daemon-replay": func(o options, budget time.Duration, tr *tracer) (*outcome, error) {
		return runDaemon(daemonFull(o.Seed), o.Root, o.Out, budget, tr)
	},
}

func main() {
	// The load (suite workers, client count) is sized for nproc; pin
	// GOMAXPROCS to it whatever the environment says.
	runtime.GOMAXPROCS(runtime.NumCPU())
	o, err := parseArgs(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	code, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{Root: ".", Out: ".bench_build"}
	var seconds float64
	var trace int
	fs.StringVar(&o.Workload, "workload", "", "workload: mesh16-uniform, quick-suite or daemon-replay")
	fs.Int64Var(&o.Seed, "seed", 1, "workload seed")
	fs.Float64Var(&seconds, "seconds", 20, "measured time per run")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if _, ok := workloads[o.Workload]; !ok {
		return o, fmt.Errorf("unknown workload %q", o.Workload)
	}
	if seconds <= 0 || trace < 0 || trace > 1 {
		return o, fmt.Errorf("--seconds must be positive and --trace 0 or 1")
	}
	o.Budget = time.Duration(seconds * float64(time.Second))
	o.Trace = trace == 1
	return o, nil
}

// run executes the workload and prints the report. It returns the exit
// code for a completed run, or an error when the run could not happen.
func run(o options, stdout io.Writer) (int, error) {
	if _, err := os.Stat(filepath.Join(o.Root, "testdata", "golden", "quick.digests")); err != nil {
		return 0, fmt.Errorf("not at the repository root: %w", err)
	}
	if err := os.MkdirAll(o.Out, 0o755); err != nil {
		return 0, err
	}
	w := workloads[o.Workload]
	fmt.Fprintf(stdout, "workload %s seed %d trace %v budget %v (nproc %d, GOMAXPROCS %d, %s)\n",
		o.Workload, o.Seed, o.Trace, o.Budget, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	var out *outcome
	defs := endToEnd
	if !o.Trace {
		var err error
		if out, err = w(o, o.Budget, nil); err != nil {
			return 0, err
		}
	} else {
		defs = perLayer
		plain, err := w(o, o.Budget/2, nil)
		if err != nil {
			return 0, err
		}
		tr := newTracer()
		if out, err = w(o, o.Budget/2, tr); err != nil {
			return 0, err
		}
		out.Ops.merge(plain.Ops)
		out.Problems = append(out.Problems, plain.Problems...)
		out.Log = append(plain.Log, out.Log...)
		compareTraced(plain, out)
		path := filepath.Join(o.Out, fmt.Sprintf("trace-%s-seed%d.json", o.Workload, o.Seed))
		if err := tr.write(path); err != nil {
			return 0, fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(stdout, "trace: %s (%d spans)\n", path, tr.spans())
	}

	for _, l := range out.Log {
		fmt.Fprintln(stdout, l)
	}
	correct := len(out.Problems) == 0
	for _, p := range out.Problems {
		fmt.Fprintln(stdout, "MISMATCH", p)
	}
	fmt.Fprintf(stdout, "%-30s %g (%d of %d operations)\n", "failed_frac", out.Ops.failedFrac(), out.Ops.Failed, out.Ops.Attempted)
	metrics := make(map[string]map[string]any, len(defs))
	for _, d := range defs {
		v := out.Metrics[d.Name]
		fmt.Fprintf(stdout, "%-30s %-14.6g %-12s %s\n", d.Name, v, d.Unit, out.Notes[d.Name])
		metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": max(out.Ops.Attempted, 1),
		"failed":    out.Ops.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		return 0, err
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1, nil
	}
	return 0, nil
}

// compareTraced checks that tracing changed no simulated output (the
// identity keys each workload records), reports the tracing overhead on
// cycles_per_s and wall_s, and takes allocation counts from the
// untraced half, since the tracer's own bookkeeping allocates.
func compareTraced(plain, traced *outcome) {
	keys := make([]string, 0, len(plain.IDs))
	for k := range plain.IDs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if plain.IDs[k] != traced.IDs[k] {
			traced.fail("%s differs between the untraced (%s) and traced (%s) runs", k, plain.IDs[k], traced.IDs[k])
		}
	}
	if len(plain.IDs) != len(traced.IDs) {
		traced.fail("untraced run recorded %d outputs, traced run %d", len(plain.IDs), len(traced.IDs))
	}
	for _, k := range []string{"noc.allocs_per_kcycle"} {
		if v, ok := plain.Metrics[k]; ok {
			traced.set(k, v, plain.Notes[k])
		}
	}
	if c := plain.Metrics["cycles_per_s"]; c > 0 {
		traced.set("trace.overhead_cycles_per_s", (c-traced.Metrics["cycles_per_s"])/c, "share of untraced cycles_per_s lost to tracing")
	}
	if w := plain.Metrics["wall_s"]; w > 0 {
		traced.set("trace.overhead_wall_s", (traced.Metrics["wall_s"]-w)/w, "share added to untraced wall_s by tracing")
	}
}
