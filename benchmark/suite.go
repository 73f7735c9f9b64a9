package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"intellinoc/internal/core"
	"intellinoc/internal/experiments"
	"intellinoc/internal/harness"
	"intellinoc/internal/telemetry"
	"intellinoc/internal/traffic"
)

// suiteSize sizes the quick-suite workload; tests use a reduced plan.
type suiteSize struct {
	Opts    experiments.SuiteOptions
	Workers int
	Setups  int
	// Golden checks every record against testdata/golden/quick.digests;
	// Complete also demands that the records cover the file exactly
	// (cmd/regress -strict).
	Golden, Complete bool
}

// quickOptions is exactly the plan of `cmd/experiments -quick -seed seed`.
func quickOptions(seed int64) experiments.SuiteOptions {
	return experiments.SuiteOptions{
		Sim:          core.SimConfig{Seed: seed},
		Packets:      15000,
		Quick:        true,
		SweepBenches: []string{"ferret", "swaptions"},
	}
}

func quickFull(seed int64) suiteSize {
	return suiteSize{
		Opts:    quickOptions(seed),
		Workers: runtime.NumCPU(),
		// A plan takes ~0.1 ms: many of them give a steady median.
		Setups: 1001,
		Golden: seed == goldenSeed, Complete: true,
	}
}

// readGolden loads the golden digest file as digest → payload sha256.
func readGolden(root string) (map[string]string, error) {
	path := filepath.Join(root, "testdata", "golden", "quick.digests")
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("%s: malformed line %q", path, line)
		}
		out[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no entries", path)
	}
	return out, nil
}

// checkGolden compares digest → payload hash results with the golden
// file, with no tolerance: a drifted payload or a record the file does
// not know is a mismatch, and with complete set so is a golden entry
// with no record (the cmd/regress -strict rule).
func checkGolden(got, golden map[string]string, complete bool) []string {
	var bad []string
	for d, h := range got {
		g, ok := golden[d]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("EXTRA %s", d))
		case g != h:
			bad = append(bad, fmt.Sprintf("DRIFT %s (payload %.12s, golden %.12s)", d, h, g))
		}
	}
	if complete {
		for d := range golden {
			if _, ok := got[d]; !ok {
				bad = append(bad, fmt.Sprintf("MISSING %s", d))
			}
		}
	}
	sort.Strings(bad)
	return bad
}

// resultsID condenses digest → payload hash results into one hash, the
// identity two passes of the same plan must share.
func resultsID(got map[string]string) string {
	keys := make([]string, 0, len(got))
	for d := range got {
		keys = append(keys, d)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, d := range keys {
		fmt.Fprintf(h, "%s %s\n", d, got[d])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// arrival is a harness record and when the observer received it.
type arrival struct {
	rec harness.Record
	at  time.Time
}

// suitePass is one Suite.Run seen from outside.
type suitePass struct {
	start, end time.Time
	arrivals   []arrival
	res        *experiments.SuiteResult
}

// lastArrival returns the latest arrival of kind ("" = any).
func (p *suitePass) lastArrival(kind string) time.Time {
	var last time.Time
	for _, a := range p.arrivals {
		if (kind == "" || a.rec.Kind == kind) && a.at.After(last) {
			last = a.at
		}
	}
	return last
}

// planInfo is what the plan says about each run digest.
type planInfo struct {
	tech string // technique name
	dep  string // pretrain digest the run waits for ("" = none)
}

func describePlan(s *experiments.Suite) map[string]planInfo {
	info := make(map[string]planInfo)
	for _, ex := range s.Experiments {
		for _, ls := range ex.Specs {
			pi := planInfo{tech: ls.Spec.Tech.String()}
			if ls.Spec.Policy != nil {
				pi.dep = ls.Spec.Policy.Digest()
			}
			info[ls.Spec.Digest()] = pi
		}
	}
	return info
}

// simCycles decodes the simulated cycle count of a run record.
func simCycles(rec harness.Record) (float64, error) {
	var r struct{ Cycles int64 }
	if err := json.Unmarshal(rec.Payload, &r); err != nil {
		return 0, fmt.Errorf("%s: decoding payload: %w", rec.Name, err)
	}
	return float64(r.Cycles), nil
}

func runSuite(sz suiteSize, root string, budget time.Duration, tr *tracer) (*outcome, error) {
	out := newOutcome()
	var golden map[string]string
	if sz.Golden {
		var err error
		if golden, err = readGolden(root); err != nil {
			return nil, err
		}
	}

	var suite *experiments.Suite
	var planMS []float64
	runtime.GC() // start the plans on a clean heap
	for i := 0; i < sz.Setups; i++ {
		t0 := time.Now()
		s, err := experiments.NewSuite(sz.Opts)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		tr.span(tidPhase, "setup: experiments.NewSuite", "experiments", t0, t1, nil)
		planMS = append(planMS, float64(t1.Sub(t0).Nanoseconds())/1e6)
		suite = s
	}
	plan := describePlan(suite)

	heap := startHeapSampler()
	defer heap.peakMB()
	start := time.Now()
	var passes []*suitePass
	var lastDur time.Duration
	var firstID string
	for another(start, budget, lastDur, len(passes)) {
		p := &suitePass{}
		var mu sync.Mutex
		p.start = time.Now()
		res, err := suite.Run(experiments.RunOptions{
			Workers: sz.Workers,
			Observer: func(rec harness.Record) {
				at := time.Now()
				mu.Lock()
				p.arrivals = append(p.arrivals, arrival{rec, at})
				mu.Unlock()
			},
		})
		p.end = time.Now()
		lastDur = p.end.Sub(p.start)
		out.Ops.Attempted += len(p.arrivals)
		if err != nil {
			out.Ops.Failed++
			out.fail("quick-suite: pass %d: %v", len(passes), err)
			break
		}
		p.res = res
		got := make(map[string]string, len(p.arrivals))
		for _, a := range p.arrivals {
			got[a.rec.Digest] = harness.PayloadHash(a.rec)
		}
		if golden != nil {
			for _, b := range checkGolden(got, golden, sz.Complete) {
				out.fail("quick-suite: pass %d: %s", len(passes), b)
			}
		}
		id := resultsID(got)
		if firstID == "" {
			firstID = id
		} else if id != firstID {
			out.fail("quick-suite: pass %d results differ from pass 0", len(passes))
		}
		tracePass(tr, p)
		passes = append(passes, p)
	}
	peak := heap.peakMB()
	if len(out.Problems) > 0 {
		return out, nil
	}
	out.IDs["suite.results"] = firstID
	out.IDs["suite.qtable_entries"] = fmt.Sprint(passes[0].res.MaxQTableEntries)

	var wallS, cps, firstMS, jobMS []float64
	for _, p := range passes {
		cycles := 0.0
		for _, a := range p.arrivals {
			jobMS = append(jobMS, a.rec.WallMS)
			if a.rec.Kind == "run" {
				c, err := simCycles(a.rec)
				if err != nil {
					return nil, err
				}
				cycles += c
			}
		}
		first := p.end
		for _, a := range p.arrivals {
			if a.rec.Kind == "run" && a.at.Before(first) {
				first = a.at
			}
		}
		w := p.end.Sub(p.start).Seconds()
		wallS = append(wallS, w)
		cps = append(cps, cycles/w)
		firstMS = append(firstMS, float64(first.Sub(p.start).Nanoseconds())/1e6)
	}
	n := len(passes)
	out.set("setup_s", median(planMS)/1e3, fmt.Sprintf("median of %d plans (experiments.NewSuite)", len(planMS)))
	out.set("peak_heap_mb", peak, "peak live heap, all passes")
	out.set("cycles_per_s", median(cps), fmt.Sprintf("simulated run-job cycles per suite wall second, median of %d passes", n))
	out.set("wall_s", median(wallS), fmt.Sprintf("Suite.Run, median of %d passes, %d workers", n, sz.Workers))
	out.set("first_record_ms", median(firstMS), "Suite.Run start to the first simulation (run) record, median")
	out.set("op_ms_p50", median(jobMS), "job wall_ms")
	out.setTail("op_ms_tail", tailOf(jobMS))
	if tr == nil {
		return out, nil
	}
	layerSuite(out, passes[n-1], plan, sz.Workers, median(planMS))
	ns, err := parsecNsPerPacket(sz.Opts.Sim.Seed, sz.Opts.Packets)
	if err != nil {
		return nil, err
	}
	out.set("traffic.parsec_ns_per_packet", ns, "drain every PARSEC model on 8x8 at the suite's packet budget")
	return out, nil
}

// tracePass records a pass's phases and its jobs.
func tracePass(tr *tracer, p *suitePass) {
	if tr == nil {
		return
	}
	lastPre := p.lastArrival("pretrain")
	lastAny := p.lastArrival("")
	tr.span(tidPhase, "experiments: Suite.Run", "experiments", p.start, p.end, nil)
	if !lastPre.IsZero() {
		tr.span(tidWindow, "harness: pretrain phase", "harness", p.start, lastPre, nil)
	} else {
		lastPre = p.start
	}
	tr.span(tidWindow, "harness: run phase", "harness", lastPre, lastAny, nil)
	tr.span(tidWindow, "experiments: assembly", "experiments", lastAny, p.end, nil)
	spans := make([]telemetry.Span, 0, len(p.arrivals))
	for _, a := range p.arrivals {
		spans = append(spans, tr.jobSpan(a.rec.Name, a.at, a.rec.WallMS, map[string]any{
			"kind": a.rec.Kind, "attempts": a.rec.Attempts, "digest": a.rec.Digest}))
	}
	tr.jobs("core", spans)
}

// layerSuite derives the core, rl, harness and experiments metrics
// from one traced pass.
func layerSuite(out *outcome, p *suitePass, plan map[string]planInfo, workers int, planMS float64) {
	var jobs []job
	var preMS, runMS []float64
	techS := make(map[string]float64)
	busyMS, attempts, cycles := 0.0, 0, 0.0
	for _, a := range p.arrivals {
		r := a.rec
		j := job{Digest: r.Digest, Kind: r.Kind, WallMS: r.WallMS}
		busyMS += r.WallMS
		attempts += r.Attempts
		if r.Kind == "pretrain" {
			preMS = append(preMS, r.WallMS)
		} else {
			pi := plan[r.Digest]
			j.Dep = pi.dep
			runMS = append(runMS, r.WallMS)
			techS[pi.tech] += r.WallMS / 1e3
			c, _ := simCycles(r) // decoded once already in runSuite
			cycles += c
		}
		jobs = append(jobs, j)
	}
	wall := p.end.Sub(p.start)
	lastPre, lastAny := p.lastArrival("pretrain"), p.lastArrival("")
	if lastPre.IsZero() {
		lastPre = p.start
	}
	assembleMS := float64(p.end.Sub(lastAny).Nanoseconds()) / 1e6

	out.set("core.pretrain_ms_p50", median(preMS), fmt.Sprintf("%d pretrain jobs", len(preMS)))
	out.set("core.pretrain_ms_max", maxOf(preMS), "")
	out.set("core.run_ms_p50", median(runMS), fmt.Sprintf("%d run jobs", len(runMS)))
	out.setTail("core.run_ms_tail", tailOf(runMS))
	for _, t := range []core.Technique{core.TechSECDED, core.TechEB, core.TechCP, core.TechCPD, core.TechIntelliNoC} {
		out.set("core.run_s."+t.String(), techS[t.String()], "sum of run-job wall")
	}
	out.set("core.sim_cycles_per_s", cycles/(sum(runMS)/1e3), "simulated cycles per run-job wall second")
	out.set("core.self_s", busyMS/1e3, "sum of job wall (core with noc, traffic and rl inside)")
	out.set("rl.qtable_entries", float64(p.res.MaxQTableEntries), "largest comparison-policy Q-table")
	out.set("harness.pretrain_phase_s", lastPre.Sub(p.start).Seconds(), "Run start to last pretrain record")
	out.set("harness.run_phase_s", lastAny.Sub(lastPre).Seconds(), "last pretrain record to last record")
	out.set("harness.critical_path_s", criticalPathMS(jobs)/1e3, "longest pretrain→run chain")
	out.set("harness.utilization", utilization(jobs, float64(wall.Nanoseconds())/1e6, workers), fmt.Sprintf("%d workers", workers))
	out.set("harness.attempts_per_job", float64(attempts)/float64(len(jobs)), "")
	out.set("harness.self_s", float64(workers)*lastAny.Sub(p.start).Seconds()-busyMS/1e3, "worker time not inside a job")
	out.set("experiments.plan_ms", planMS, "")
	out.set("experiments.assemble_ms", assembleMS, "last record to Suite.Run return")
	out.set("experiments.self_s", (planMS+assembleMS)/1e3, "plan + assembly")
}

// parsecNsPerPacket drains every PARSEC model at the given packet
// budget on the suite's default 8x8 mesh (seed delta 271, as the
// suite's specs use) and returns host ns per packet.
func parsecNsPerPacket(seed int64, packets int) (float64, error) {
	n := 0
	t0 := time.Now()
	for _, b := range traffic.ParsecBenchmarks() {
		g, err := traffic.NewParsec(b, 8, 8, packets, seed+271)
		if err != nil {
			return 0, err
		}
		for {
			if _, ok := g.Next(); !ok {
				break
			}
			n++
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("parsec models produced no packets")
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n), nil
}
