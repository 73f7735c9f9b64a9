package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"intellinoc/internal/experiments"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		value  float64
		beyond int
	}{
		{19, 50, 10, 9}, // too few for any percentile: median, and it says so
		{20, 50, 10, 10},
		{40, 75, 30, 10},
		{100, 90, 90, 10},
		{199, 90, 180, 19}, // p95 would leave 9 beyond
		{200, 95, 190, 10},
		{1000, 99, 990, 10},
		{10000, 99, 9900, 100}, // the ladder stops at p99
	} {
		// Shuffled input: the rule must not depend on sample order.
		xs := seq(c.n)
		for i := range xs {
			j := (i * 7919) % len(xs)
			xs[i], xs[j] = xs[j], xs[i]
		}
		got := tailOf(xs)
		if got.P != c.p || got.Value != c.value || got.Beyond != c.beyond || got.N != c.n {
			t.Errorf("n=%d: got %+v, want p%g=%g with %d beyond", c.n, got, c.p, c.value, c.beyond)
		}
		if s := got.String(); !strings.Contains(s, "of ") || !strings.Contains(s, " beyond") {
			t.Errorf("n=%d: %q does not report the sample count", c.n, s)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %g, want 2.5", got)
	}
}

func TestCriticalPathAndUtilization(t *testing.T) {
	jobs := []job{
		{Digest: "p1", Kind: "pretrain", WallMS: 100},
		{Digest: "p2", Kind: "pretrain", WallMS: 40},
		{Digest: "r1", Kind: "run", WallMS: 50, Dep: "p1"},  // chain 150
		{Digest: "r2", Kind: "run", WallMS: 120},            // no policy: 120
		{Digest: "r3", Kind: "run", WallMS: 90, Dep: "p2"},  // chain 130
		{Digest: "r4", Kind: "run", WallMS: 30, Dep: "p1"},  // chain 130
		{Digest: "r5", Kind: "run", WallMS: 10, Dep: "p-x"}, // unknown pretrain counts 0
	}
	if got := criticalPathMS(jobs); got != 150 {
		t.Errorf("critical path = %g ms, want 150 (p1 → r1)", got)
	}
	// 440 ms of job time on 2 workers over 275 ms of wall.
	if got := utilization(jobs, 275, 2); got != 0.8 {
		t.Errorf("utilization = %g, want 0.8", got)
	}
	if got := utilization(jobs, 0, 2); got != 0 {
		t.Errorf("utilization with no wall = %g, want 0", got)
	}
}

func TestFailedFracCountsRefusals(t *testing.T) {
	var c opCount
	for _, status := range []int{202, 200, 429, 503, 500, 0} {
		c.http(status)
	}
	c.add(true)
	c.add(false)
	if c.Attempted != 8 || c.Failed != 5 {
		t.Fatalf("attempted %d failed %d, want 8 and 5", c.Attempted, c.Failed)
	}
	if got := c.failedFrac(); got != 5.0/8 {
		t.Errorf("failed_frac = %g, want %g", got, 5.0/8)
	}
	if got := (opCount{}).failedFrac(); got != 0 {
		t.Errorf("failed_frac of nothing = %g", got)
	}
}

func TestPlateauDetector(t *testing.T) {
	p := plateau{Windows: 4, Tol: []float64{0.10, 0.05}}
	// A fill ramp that levels off at 100 from window 6 on.
	ramp := []float64{10, 30, 55, 75, 90, 98, 100, 101, 99, 100, 100, 102}
	flat := make([]float64, len(ramp))
	for i := range flat {
		flat[i] = 25 + float64(i%2)*0.5
	}
	first := -1
	for i := 1; i <= len(ramp); i++ {
		if p.reached(ramp[:i], flat[:i]) {
			first = i
			break
		}
	}
	if first != 9 { // windows 6..9 (98, 100, 101, 99) are the first four within 10%
		t.Errorf("plateau first reached after %d windows, want 9", first)
	}
	// Steady growth never plateaus.
	if p.reached(seq(40), flat[:1]) {
		t.Error("a steady ramp was called a plateau")
	}
	// Every series must have levelled: a flat rate with a still-moving
	// flit series is not steady.
	if p.reached(ramp, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}) {
		t.Error("plateau reached while the second series still ramps")
	}
	// A series flat from the start plateaus once it holds Windows values.
	if p.reached(flat[:3], flat[:3]) || !p.reached(flat[:4], flat[:4]) {
		t.Error("a flat series did not plateau exactly at Windows values")
	}
}

func TestCheckGoldenIsStrict(t *testing.T) {
	golden := map[string]string{"a": "h1", "b": "h2", "c": "h3"}
	if bad := checkGolden(map[string]string{"a": "h1", "b": "h2", "c": "h3"}, golden, true); len(bad) != 0 {
		t.Errorf("exact match reported %v", bad)
	}
	if bad := checkGolden(map[string]string{"a": "h1"}, golden, false); len(bad) != 0 {
		t.Errorf("subset without complete reported %v", bad)
	}
	bad := checkGolden(map[string]string{"a": "h1", "b": "hX", "d": "h4"}, golden, true)
	want := []string{"DRIFT b", "EXTRA d", "MISSING c"}
	if len(bad) != len(want) {
		t.Fatalf("got %v, want %v", bad, want)
	}
	for i, w := range want {
		if !strings.HasPrefix(bad[i], w) {
			t.Errorf("finding %d = %q, want prefix %q", i, bad[i], w)
		}
	}
}

// TestBenchmarkJSONMatchesCommand keeps BENCHMARK.json and the metric
// and workload tables of the command in step.
func TestBenchmarkJSONMatchesCommand(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the command", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Errorf("end_to_end: %d in BENCHMARK.json, %d in the command", len(b.EndToEnd), len(endToEnd))
	}
	setupBound := 0.0
	for i := range b.EndToEnd {
		if i < len(endToEnd) && (b.EndToEnd[i].Name != endToEnd[i].Name || b.EndToEnd[i].Unit != endToEnd[i].Unit) {
			t.Errorf("end_to_end[%d] = %s %s, command %s %s", i, b.EndToEnd[i].Name, b.EndToEnd[i].Unit, endToEnd[i].Name, endToEnd[i].Unit)
		}
		if b.EndToEnd[i].Name == "setup_s" {
			setupBound = b.EndToEnd[i].Bound
		}
	}
	for _, m := range b.EndToEnd {
		if m.Bound > 0.25 || m.Bound <= 0 || m.Bound > setupBound {
			t.Errorf("%s: bound %g (no bound may exceed setup_s's %g, all within (0, 0.25])", m.Name, m.Bound, setupBound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Errorf("per_layer: %d in BENCHMARK.json, %d in the command", len(b.PerLayer), len(perLayer))
	}
	for i := range b.PerLayer {
		if i < len(perLayer) && b.PerLayer[i] != struct{ Name, Unit string }(perLayer[i]) {
			t.Errorf("per_layer[%d] = %v, command %v", i, b.PerLayer[i], perLayer[i])
		}
	}
}

// tinyMesh is a 4x4 mesh small enough for a unit test.
var tinyMesh = meshSize{
	Width: 4, Window: 100, WarmWindows: 4,
	Warm:  plateau{Windows: 2, Tol: []float64{1, 1}},
	Check: 800, Setups: 2,
}

// traced runs a workload untraced and then traced, as --trace 1 does.
func traced(t *testing.T, run func(tr *tracer) (*outcome, error)) (plain, out *outcome) {
	t.Helper()
	plain, err := run(nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	out, err = run(tr)
	if err != nil {
		t.Fatal(err)
	}
	compareTraced(plain, out)
	if err := tr.write(filepath.Join(t.TempDir(), "trace.json")); err != nil {
		t.Fatal(err)
	}
	if tr.spans() == 0 {
		t.Error("traced run recorded no spans")
	}
	return plain, out
}

func checkReport(t *testing.T, plain, out *outcome, layer ...string) {
	t.Helper()
	for _, p := range append(plain.Problems, out.Problems...) {
		t.Error(p)
	}
	if len(plain.IDs) == 0 {
		t.Error("no outputs recorded for the identity check")
	}
	for _, d := range endToEnd {
		if v := plain.Metrics[d.Name]; !(v > 0) {
			t.Errorf("%s = %g, want > 0", d.Name, v)
		}
	}
	for _, name := range layer {
		if v := out.Metrics[name]; !(v > 0) {
			t.Errorf("%s = %g, want > 0", name, v)
		}
	}
	if plain.Ops.Attempted == 0 || plain.Ops.Failed != 0 {
		t.Errorf("ops %+v", plain.Ops)
	}
}

func TestTinyMesh(t *testing.T) {
	run := func(sz meshSize) func(tr *tracer) (*outcome, error) {
		return func(tr *tracer) (*outcome, error) { return runMesh(sz, 3, 20*time.Millisecond, tr) }
	}
	plain, out := traced(t, run(tinyMesh))
	checkReport(t, plain, out, "noc.step_us_p50", "noc.plain_step_us_p50", "noc.boundary_step_us_p50",
		"noc.new_ms", "noc.flits_per_cycle", "traffic.next_ns", "traffic.next_share")

	// The recorded outputs gate the run: the right ones pass, a wrong
	// fingerprint is a mismatch.
	sz := tinyMesh
	sz.Expect = &meshExpect{Seed: 3, CheckCycle: sz.Check, Fingerprint: plain.IDs["mesh.fingerprint"]}
	if _, err := fmt.Sscan(plain.IDs["mesh.flits_at_check"], &sz.Expect.FlitsDelivered); err != nil {
		t.Fatal(err)
	}
	if o, err := runMesh(sz, 3, time.Millisecond, nil); err != nil || len(o.Problems) != 0 {
		t.Errorf("recorded outputs rejected: %v %v", err, o.Problems)
	}
	sz.Expect.Fingerprint = "0x1"
	if o, err := runMesh(sz, 3, time.Millisecond, nil); err != nil || len(o.Problems) != 1 {
		t.Errorf("wrong fingerprint not caught: %v %v", err, o.Problems)
	}
}

func TestTinySuiteMatchesGolden(t *testing.T) {
	opts := quickOptions(goldenSeed)
	opts.Only = []string{"fig18b"}
	sz := suiteSize{Opts: opts, Workers: 2, Setups: 2, Golden: true}
	plain, out := traced(t, func(tr *tracer) (*outcome, error) { return runSuite(sz, "..", time.Millisecond, tr) })
	checkReport(t, plain, out, "core.pretrain_ms_p50", "core.run_ms_p50", "core.run_s.IntelliNoC",
		"core.sim_cycles_per_s", "harness.critical_path_s", "harness.utilization", "experiments.plan_ms",
		"traffic.parsec_ns_per_packet")

	// A subset of the plan is not the whole golden file.
	sz.Complete = true
	o, err := runSuite(sz, "..", time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Problems) == 0 || !strings.Contains(o.Problems[0], "MISSING") {
		t.Errorf("incomplete plan passed the complete golden check: %v", o.Problems)
	}
}

func TestTinyDaemonMatchesGolden(t *testing.T) {
	sz := daemonSize{
		Opts:   quickOptions(goldenSeed),
		Warm:   []string{"fig17a/base/ferret"},
		Cold:   []string{"fig17a/base/swaptions", "fig17a/200cyc/ferret"},
		Hits:   20,
		Golden: true,
	}
	dir := t.TempDir()
	plain, out := traced(t, func(tr *tracer) (*outcome, error) { return runDaemon(sz, "..", dir, time.Millisecond, tr) })
	checkReport(t, plain, out, "service.submit_ms_p50", "service.overhead_ms_p50", "service.executed",
		"core.run_ms_p50")
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Errorf("daemon stores left behind: %v", left)
	}
}

func TestPlanSpecsRejectsUnknownName(t *testing.T) {
	if _, err := planSpecs(experiments.SuiteOptions{Quick: true, Packets: 100}, []string{"no/such/spec"}); err == nil {
		t.Error("unknown spec name accepted")
	}
}
