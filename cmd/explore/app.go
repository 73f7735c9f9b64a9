package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"intellinoc/internal/core"
	"intellinoc/internal/experiments"
	"intellinoc/internal/explore"
	"intellinoc/internal/harness"
	"intellinoc/internal/telemetry"
	"intellinoc/internal/traffic"
)

// options carries the parsed command line.
type options struct {
	// Lattice axes.
	smoke     bool
	meshes    string
	techs     string
	patterns  string
	rates     string
	vcs       string
	bufs      string
	epsilons  string
	topos     string
	packets   int
	seed      int64
	maxCycles int64

	// Strategy selection and parameters.
	strategy    string
	rungs       int
	eta         int
	generations int
	mu          int
	lambda      int
	evolveSeed  int64

	// QoS bounds (any positive bound enables the admission search).
	qosAvgLatency float64
	qosP99Latency float64
	qosThroughput float64

	// Execution.
	workers  int
	shards   int
	results  string
	resume   bool
	progress bool

	// Output.
	frontierPath string
	mdPath       string
	check        bool
	telemetryDir string
}

// parseArgs parses the command line into options. It uses a dedicated
// FlagSet so tests can drive it without touching the global flag state.
func parseArgs(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("explore", flag.ContinueOnError)
	fs.SetOutput(stderr)

	fs.BoolVar(&o.smoke, "smoke", false, "use the fixed CI smoke lattice (ignores the axis flags)")
	fs.StringVar(&o.meshes, "mesh", "8", "comma-separated square mesh edge sizes")
	fs.StringVar(&o.techs, "techs", "", "comma-separated techniques (SECDED,EB,CP,CPD,IntelliNoC); empty = all")
	fs.StringVar(&o.patterns, "patterns", "uniform", "comma-separated traffic patterns")
	fs.StringVar(&o.rates, "rates", "0.05", "comma-separated injection rates (flits/node/cycle)")
	fs.StringVar(&o.vcs, "vcs", "", "comma-separated VC overrides (0 = technique default)")
	fs.StringVar(&o.bufs, "bufs", "", "comma-separated buffer-depth overrides (0 = technique default)")
	fs.StringVar(&o.epsilons, "epsilons", "", "comma-separated RL exploration rates (IntelliNoC only; 0 = default)")
	fs.StringVar(&o.topos, "topologies", "", "comma-separated fabric families (mesh, torus, chiplet[:WxH], routerless); empty = mesh")
	fs.IntVar(&o.packets, "packets", 2000, "full per-point packet budget")
	fs.Int64Var(&o.seed, "seed", 1, "simulation PRNG seed")
	fs.Int64Var(&o.maxCycles, "max-cycles", 0, "per-run cycle bound (0 = simulator default)")

	fs.StringVar(&o.strategy, "strategy", "grid", "search strategy: grid, halving, evolve, or all")
	fs.IntVar(&o.rungs, "rungs", 3, "successive-halving budget levels")
	fs.IntVar(&o.eta, "eta", 2, "successive-halving promotion divisor")
	fs.IntVar(&o.generations, "generations", 3, "evolutionary generations")
	fs.IntVar(&o.mu, "mu", 4, "evolutionary parents per generation")
	fs.IntVar(&o.lambda, "lambda", 8, "evolutionary children per generation")
	fs.Int64Var(&o.evolveSeed, "evolve-seed", 1, "mutation PRNG seed")

	fs.Float64Var(&o.qosAvgLatency, "qos-avg-latency", 0, "QoS bound: max mean packet latency in cycles (0 = off)")
	fs.Float64Var(&o.qosP99Latency, "qos-p99-latency", 0, "QoS bound: max p99 packet latency in cycles (0 = off)")
	fs.Float64Var(&o.qosThroughput, "qos-throughput", 0, "QoS bound: min delivered flits per cycle (0 = off)")

	fs.IntVar(&o.workers, "workers", runtime.GOMAXPROCS(0), "parallel simulations")
	fs.IntVar(&o.shards, "shards", 0, "step each mesh with this many parallel shards (digest-neutral; 0 or 1 = one inline shard)")
	fs.StringVar(&o.results, "results", "", "stream finished evaluations to this JSONL file (enables resume and cmd/regress)")
	fs.BoolVar(&o.resume, "resume", false, "skip evaluations already recorded in -results and append the rest")
	fs.BoolVar(&o.progress, "progress", true, "print live progress to stderr")

	fs.StringVar(&o.frontierPath, "frontier", "", "write the canonical frontier report JSON to this path (default stdout)")
	fs.StringVar(&o.mdPath, "md", "", "write a markdown frontier table to this path")
	fs.BoolVar(&o.check, "check", false, "fail unless the frontier is non-empty and strictly non-dominated")
	fs.StringVar(&o.telemetryDir, "telemetry-dir", "", "write metrics.prom and a timeline.json Chrome trace of the evaluation schedule to this directory")

	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}
	if o.resume && o.results == "" {
		return o, fmt.Errorf("-resume requires -results")
	}
	switch o.strategy {
	case "grid", "halving", "evolve", "all":
	default:
		return o, fmt.Errorf("unknown -strategy %q (grid, halving, evolve, all)", o.strategy)
	}
	return o, nil
}

// lattice materializes the searched space from the axis flags.
func lattice(o options) (experiments.Lattice, error) {
	if o.smoke {
		return explore.SmokeLattice(), nil
	}
	lat := experiments.Lattice{
		Packets: o.packets, Seed: o.seed, MaxCycles: o.maxCycles,
	}
	var err error
	if lat.Meshes, err = parseInts(o.meshes); err != nil {
		return lat, fmt.Errorf("-mesh: %w", err)
	}
	if lat.Rates, err = parseFloats(o.rates); err != nil {
		return lat, fmt.Errorf("-rates: %w", err)
	}
	if lat.VCs, err = parseInts(o.vcs); err != nil {
		return lat, fmt.Errorf("-vcs: %w", err)
	}
	if lat.BufDepths, err = parseInts(o.bufs); err != nil {
		return lat, fmt.Errorf("-bufs: %w", err)
	}
	if lat.Epsilons, err = parseFloats(o.epsilons); err != nil {
		return lat, fmt.Errorf("-epsilons: %w", err)
	}
	lat.Topologies = splitList(o.topos)
	for _, name := range splitList(o.techs) {
		t, err := parseTechnique(name)
		if err != nil {
			return lat, err
		}
		lat.Techniques = append(lat.Techniques, t)
	}
	for _, name := range splitList(o.patterns) {
		p, err := traffic.ParsePattern(name)
		if err != nil {
			return lat, err
		}
		lat.Patterns = append(lat.Patterns, p)
	}
	return lat, nil
}

// parseTechnique resolves a name case-insensitively.
func parseTechnique(name string) (core.Technique, error) {
	for _, t := range core.Techniques() {
		if strings.EqualFold(t.String(), name) {
			return t, nil
		}
	}
	return 0, fmt.Errorf("unknown technique %q (SECDED, EB, CP, CPD, IntelliNoC)", name)
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range splitList(s) {
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, f := range splitList(s) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

// run executes the search per the options: the report JSON goes to
// -frontier (or stdout), progress to stderr.
func run(ctx context.Context, o options, stdout, stderr io.Writer) error {
	lat, err := lattice(o)
	if err != nil {
		return err
	}

	var progress io.Writer
	if o.progress {
		progress = stderr
	}
	// The tap sees executed evaluations only; it never feeds back into
	// results, so the frontier report is byte-identical with or without it.
	var tap *telemetry.JobTap
	var observer func(harness.Record)
	if o.telemetryDir != "" {
		tap = telemetry.NewJobTap(telemetry.JobTapSpec{
			Process:  "explore harness",
			Category: "evaluation",
			Jobs:     telemetry.Metric{Name: "explore_evaluations_total", Help: "Executed design-point evaluations (cache hits excluded)."},
			Retries:  telemetry.Metric{Name: "explore_job_retries_total", Help: "Extra attempts beyond the first, summed over jobs."},
			Wall:     telemetry.Metric{Name: "explore_job_wall_ms", Help: "Per-evaluation wall time in milliseconds."},
			Buckets:  []float64{10, 100, 500, 1000, 5000, 15000, 60000},
		})
		observer = tap.Observe
	}

	e, err := explore.New(lat, explore.Options{
		Workers: o.workers, ResultsPath: o.results, Resume: o.resume,
		Progress: progress, Observer: observer, Ctx: ctx, Shards: o.shards,
	})
	if err != nil {
		return err
	}
	defer e.Close()

	// Fixed orchestration order — part of the determinism contract.
	switch o.strategy {
	case "grid":
		err = e.Grid()
	case "halving":
		err = e.Halve(explore.Halving{Rungs: o.rungs, Eta: o.eta})
	case "evolve":
		err = e.EvolveFrontier(explore.Evolve{
			Mu: o.mu, Lambda: o.lambda, Generations: o.generations, Seed: o.evolveSeed,
		})
	case "all":
		// The grid drains at low priority in the background while halving
		// promotions and evolutionary children preempt its queued points.
		grid := e.GridAsync()
		if err = e.Halve(explore.Halving{Rungs: o.rungs, Eta: o.eta}); err == nil {
			if err = e.FinishGrid(grid); err == nil {
				err = e.EvolveFrontier(explore.Evolve{
					Mu: o.mu, Lambda: o.lambda, Generations: o.generations, Seed: o.evolveSeed,
				})
			}
		}
	}
	if err != nil {
		return err
	}

	qos := explore.QoSConfig{
		MaxAvgLatency:    o.qosAvgLatency,
		MaxP99Latency:    o.qosP99Latency,
		MinThroughputFPC: o.qosThroughput,
	}
	rep := e.Report()
	if qos != (explore.QoSConfig{}) {
		qres, err := e.QoSAdmit(qos)
		if err != nil {
			return err
		}
		rep = e.Report() // the admission search may have grown the frontier
		rep.QoS = &explore.QoSReport{Config: qos, Result: qres}
	}

	if o.check {
		if err := rep.ValidateFrontier(); err != nil {
			return err
		}
		fmt.Fprintln(stderr, "explore: frontier check OK")
	}

	raw, err := rep.MarshalCanonical()
	if err != nil {
		return err
	}
	if o.frontierPath != "" {
		if err := os.WriteFile(o.frontierPath, raw, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "explore: %d lattice points, %d evaluated, %d on the frontier -> %s\n",
			rep.LatticePoints, rep.Evaluations, len(rep.Frontier), o.frontierPath)
	} else {
		if _, err := stdout.Write(raw); err != nil {
			return err
		}
	}
	if o.mdPath != "" {
		if err := os.WriteFile(o.mdPath, []byte(rep.MarkdownTable()), 0o644); err != nil {
			return err
		}
	}
	if tap != nil {
		if err := tap.WriteDir(o.telemetryDir); err != nil {
			return fmt.Errorf("writing telemetry: %w", err)
		}
	}
	return nil
}
