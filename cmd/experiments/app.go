package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"intellinoc/internal/core"
	"intellinoc/internal/experiments"
	"intellinoc/internal/harness"
)

// options carries the parsed command line.
type options struct {
	packets       int
	quick         bool
	only          string
	workers       int
	mdPath        string
	seed          int64
	results       string
	resume        bool
	progress      bool
	telemetryDir  string
	telemetryAddr string
	shards        int
	topology      string
	policyZoo     string
	cpuprofile    string
	memprofile    string
	dumpSpecs     string
}

// parseArgs parses the command line into options. It uses a dedicated
// FlagSet so tests can drive it without touching the global flag state.
func parseArgs(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.IntVar(&o.packets, "packets", 60000, "packets per run")
	fs.BoolVar(&o.quick, "quick", false, "reduced budgets (fewer packets, fewer sweep benchmarks)")
	fs.StringVar(&o.only, "only", "", "comma-separated experiment ids (fig9..fig18b, table2, ...)")
	fs.IntVar(&o.workers, "workers", runtime.GOMAXPROCS(0), "parallel simulations")
	fs.StringVar(&o.mdPath, "md", "", "write a markdown report to this path")
	fs.Int64Var(&o.seed, "seed", 1, "PRNG seed")
	fs.StringVar(&o.results, "results", "", "stream finished jobs to this JSONL file (enables resume and cmd/regress)")
	fs.BoolVar(&o.resume, "resume", false, "skip jobs already recorded in -results and append the rest")
	fs.BoolVar(&o.progress, "progress", true, "print live progress (jobs done/total, ETA, utilization) to stderr")
	fs.StringVar(&o.telemetryDir, "telemetry-dir", "", "write a metrics.prom snapshot and a timeline.json Chrome trace of the job schedule to this directory")
	fs.StringVar(&o.telemetryAddr, "telemetry-addr", "", "serve /metrics, /debug/vars, and /debug/pprof on this address while the suite runs (e.g. localhost:6060)")
	fs.IntVar(&o.shards, "shards", 0, "step each simulated mesh with this many parallel shards (bit-identical results and digests; 0 or 1 = one inline shard)")
	fs.StringVar(&o.topology, "topology", "", "fabric family for every run: mesh (default), torus, chiplet[:WxH], routerless (changes results and digests)")
	fs.StringVar(&o.policyZoo, "policy-zoo", "", "policy zoo directory: reuse pre-trained Q-tables across invocations, keyed by policy-spec digest (bit-identical results; empty = train in-process)")
	fs.StringVar(&o.dumpSpecs, "dump-specs", "", "write the suite's unique run specs as JSONL ({name,digest,spec} per line) to this path and exit without simulating — feeds cmd/intellinocd clients")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the whole suite to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile taken after the suite to this file")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}
	if o.resume && o.results == "" {
		return o, fmt.Errorf("-resume requires -results")
	}
	return o, nil
}

// onlyIDs splits the -only flag into ids.
func onlyIDs(only string) []string {
	if only == "" {
		return nil
	}
	var ids []string
	for _, id := range strings.Split(only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			ids = append(ids, id)
		}
	}
	return ids
}

// run executes the suite per the options and writes figures to stdout
// (and optionally the markdown report). Progress goes to stderr. A nil
// ctx runs to completion; cancellation stops the suite between (and
// inside) simulations, leaving -results resumable.
func run(ctx context.Context, o options, stdout, stderr io.Writer) error {
	nPackets := o.packets
	sweepBenches := []string{"bodytrack", "canneal", "ferret", "swaptions"}
	if o.quick {
		nPackets = 15000
		sweepBenches = []string{"ferret", "swaptions"}
	}
	suite, err := experiments.NewSuite(experiments.SuiteOptions{
		Sim:          core.SimConfig{Seed: o.seed, Shards: o.shards, Topology: o.topology},
		Packets:      nPackets,
		Quick:        o.quick,
		Only:         onlyIDs(o.only),
		SweepBenches: sweepBenches,
	})
	if err != nil {
		return err
	}
	if o.dumpSpecs != "" {
		n, err := dumpSuiteSpecs(suite, o.dumpSpecs)
		if err != nil {
			return fmt.Errorf("dumping specs: %w", err)
		}
		fmt.Fprintf(stdout, "wrote %d unique spec(s) to %s\n", n, o.dumpSpecs)
		return nil
	}

	var progress io.Writer
	if o.progress {
		progress = stderr
	}
	var tap *telemetryTap
	var observer func(harness.Record)
	if o.telemetryDir != "" || o.telemetryAddr != "" {
		tap = newTelemetryTap()
		observer = tap.observe
		if o.telemetryAddr != "" {
			ops, err := tap.serve(o.telemetryAddr, stderr)
			if err != nil {
				return fmt.Errorf("telemetry server: %w", err)
			}
			// Tear the server down when the suite returns: without this
			// the listener and serve goroutine leak for the process
			// lifetime and a late accept error could write to stderr
			// after the caller has moved on.
			defer func() {
				sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				if err := ops.Shutdown(sctx); err != nil {
					fmt.Fprintln(stderr, "telemetry: shutdown:", err)
				}
			}()
			fmt.Fprintf(stderr, "telemetry: serving /metrics, /debug/vars, /debug/pprof on %s\n", ops.Addr)
		}
	}
	var zoo *core.PolicyStore
	if o.policyZoo != "" {
		zoo, err = core.NewPolicyStore(o.policyZoo)
		if err != nil {
			return fmt.Errorf("opening policy zoo: %w", err)
		}
	}
	start := time.Now()
	res, err := suite.Run(experiments.RunOptions{
		Workers:     o.workers,
		ResultsPath: o.results,
		Resume:      o.resume,
		Progress:    progress,
		Observer:    observer,
		Ctx:         ctx,
		PolicyZoo:   zoo,
	})
	if err != nil {
		return err
	}
	if tap != nil && o.telemetryDir != "" {
		if err := tap.writeDir(o.telemetryDir); err != nil {
			return fmt.Errorf("writing telemetry: %w", err)
		}
		fmt.Fprintln(stdout, "wrote telemetry snapshot to", o.telemetryDir)
	}

	for _, fig := range res.Figures {
		fmt.Fprintln(stdout, fig.Format())
	}
	if res.MaxQTableEntries > 0 {
		fmt.Fprintf(stdout, "IntelliNoC max Q-table: %d entries (paper budget: 350)\n\n", res.MaxQTableEntries)
	}
	if o.policyZoo != "" {
		fmt.Fprintf(stdout, "policy zoo: %d loaded, %d trained and stored, %d warm-started\n",
			res.Zoo.Hits, res.Zoo.Stores, res.Zoo.WarmStarts)
	}
	if o.resume {
		fmt.Fprintf(stdout, "resume: %d jobs reused, %d run", res.JobsCached, res.JobsRun)
		if res.SkippedLines > 0 {
			fmt.Fprintf(stdout, " (%d corrupt line(s) skipped)", res.SkippedLines)
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "total wall time: %v\n", time.Since(start).Round(time.Second))

	if o.mdPath != "" {
		if err := os.WriteFile(o.mdPath, []byte(report(o, nPackets, res.Figures)), 0o644); err != nil {
			return fmt.Errorf("writing report: %w", err)
		}
		fmt.Fprintln(stdout, "wrote", o.mdPath)
	}
	return nil
}

// dumpSuiteSpecs writes every unique run spec of the suite as one JSONL
// line {"name","digest","spec"} — ready to wrap into POST /v1/jobs
// bodies for cmd/intellinocd (the CI daemon smoke job does exactly
// that). Digest order follows the plan; duplicates keep the first name.
func dumpSuiteSpecs(suite *experiments.Suite, path string) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	enc := json.NewEncoder(f)
	seen := make(map[string]bool)
	n := 0
	for _, ex := range suite.Experiments {
		for _, ls := range ex.Specs {
			d := ls.Spec.Digest()
			if seen[d] {
				continue
			}
			seen[d] = true
			if err := enc.Encode(map[string]any{"name": ls.Name, "digest": d, "spec": ls.Spec}); err != nil {
				f.Close()
				return n, err
			}
			n++
		}
	}
	return n, f.Close()
}

// report renders the markdown report. Its bytes depend only on the
// options and the figures — never on worker count, timing, or resume
// state — which is the invariant cmd/regress and the CI determinism
// gate enforce.
func report(o options, nPackets int, figs []experiments.Figure) string {
	var b strings.Builder
	b.WriteString("# IntelliNoC — Reproduced Evaluation\n\n")
	fmt.Fprintf(&b, "Generated by `cmd/experiments` (packets/run: %d, seed: %d, quick: %v).\n",
		nPackets, o.seed, o.quick)
	b.WriteString("Each table reports this reproduction's measurements; the *Paper* line ")
	b.WriteString("below each table records what the original reports, for shape comparison.\n\n")
	b.WriteString(experiments.RenderMarkdown(figs))
	b.WriteString(divergences)
	return b.String()
}
