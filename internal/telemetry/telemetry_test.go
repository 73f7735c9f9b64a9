package telemetry_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"intellinoc/internal/core"
	"intellinoc/internal/noc"
	"intellinoc/internal/rl"
	"intellinoc/internal/telemetry"
	"intellinoc/internal/traffic"
)

func TestRecorderRingSemantics(t *testing.T) {
	r := telemetry.NewRecorder(4)
	if r.Len() != 0 || r.Total() != 0 || r.Tail(0) != nil {
		t.Fatal("fresh recorder must be empty")
	}
	for i := 0; i < 10; i++ {
		r.RecordEvent(noc.Event{Cycle: int64(i), Kind: noc.EvInject, Router: i})
	}
	if r.Len() != 4 || r.Total() != 10 {
		t.Fatalf("Len=%d Total=%d, want 4 and 10", r.Len(), r.Total())
	}
	tail := r.Tail(0)
	if len(tail) != 4 {
		t.Fatalf("Tail(0) returned %d entries, want 4", len(tail))
	}
	for i, e := range tail {
		if want := int64(6 + i); e.Cycle() != want {
			t.Fatalf("tail[%d] cycle %d, want %d (oldest-first)", i, e.Cycle(), want)
		}
	}
	if got := r.Tail(2); len(got) != 2 || got[0].Cycle() != 8 || got[1].Cycle() != 9 {
		t.Fatalf("Tail(2) = %v", got)
	}
	lines := r.TailLines(0)
	if len(lines) != 5 || !strings.Contains(lines[0], "6 earlier entries dropped") {
		t.Fatalf("TailLines header missing: %q", lines)
	}
	r.Reset()
	if r.Len() != 0 || r.Total() != 0 {
		t.Fatal("Reset must empty the ring")
	}
	// Partially full ring: tail must not include zero entries.
	r.RecordEpoch(noc.EpochSample{Cycle: 42, Router: 3})
	r.RecordDecision(rl.DecisionSample{Cycle: 43, Router: 3})
	if got := r.Tail(0); len(got) != 2 || got[0].Cycle() != 42 || got[1].Cycle() != 43 {
		t.Fatalf("partial ring tail = %v", got)
	}
}

// Recording into a warmed-up ring must not allocate: the recorder sits on
// the simulation thread and the hot-path contract is 0 allocs/cycle.
func TestRecorderDoesNotAllocate(t *testing.T) {
	r := telemetry.NewRecorder(32)
	ev := noc.Event{Cycle: 1, Kind: noc.EvTraverse, Router: 2, PacketID: 7, FlitSeq: 1}
	ep := noc.EpochSample{Cycle: 1000, Router: 2}
	de := rl.DecisionSample{Cycle: 1000, Router: 2}
	allocs := testing.AllocsPerRun(1000, func() {
		r.RecordEvent(ev)
		r.RecordEpoch(ep)
		r.RecordDecision(de)
	})
	if allocs != 0 {
		t.Fatalf("recording allocated %.1f times per run, want 0", allocs)
	}
}

func TestEntryStrings(t *testing.T) {
	cases := []telemetry.Entry{
		{Kind: telemetry.EntryEvent, Event: noc.Event{Cycle: 5, Kind: noc.EvHopRetransmit, Router: 1, PacketID: 9}},
		{Kind: telemetry.EntryEpoch, Epoch: noc.EpochSample{Cycle: 1000, Router: 2, WindowMode: noc.ModeCRC, NextMode: noc.ModeSECDED, TempC: 51.5}},
		{Kind: telemetry.EntryDecision, Decision: rl.DecisionSample{Cycle: 1000, Router: 2, Action: 3, TableSize: 12}},
	}
	for _, want := range []string{"hop-retransmit", "epoch", "decision"} {
		found := false
		for _, e := range cases {
			if strings.Contains(e.String(), want) {
				found = true
			}
		}
		if !found {
			t.Fatalf("no entry renders %q", want)
		}
	}
}

// loadTrace unmarshals trace JSON back into a generic structure.
func loadTrace(t *testing.T, data []byte) []map[string]any {
	t.Helper()
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	return out.TraceEvents
}

func TestTraceJSONShape(t *testing.T) {
	tr := telemetry.NewTrace()
	tr.SetProcessName(1, "network")
	tr.SetThreadName(1, 0, "router 0")
	tr.Complete(1, 0, "crc", "mode", 0, 2000, nil)
	tr.Instant(1, 0, "hop-retransmit", "error", 150, map[string]any{"pkt": 3})
	tr.Counter(2, "temp router 0", 1000, map[string]any{"C": 51.2})
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	evs := loadTrace(t, buf.Bytes())
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5", len(evs))
	}
	// Metadata first, then by timestamp.
	if evs[0]["ph"] != "M" || evs[1]["ph"] != "M" {
		t.Fatalf("metadata events must sort first: %v", evs)
	}
	var phases []string
	for _, e := range evs {
		phases = append(phases, e["ph"].(string))
		if _, ok := e["name"]; !ok {
			t.Fatalf("event missing name: %v", e)
		}
	}
	if phases[2] != "X" || phases[3] != "i" || phases[4] != "C" {
		t.Fatalf("unexpected phase order %v", phases)
	}
	slice := evs[2]
	if slice["dur"].(float64) != 2000 || slice["cat"] != "mode" {
		t.Fatalf("bad slice %v", slice)
	}
	if evs[3]["s"] != "t" {
		t.Fatalf("instant must be thread-scoped: %v", evs[3])
	}
}

func TestAssignLanes(t *testing.T) {
	spans := []telemetry.Span{
		{Name: "a", Start: 0, Duration: 10},
		{Name: "b", Start: 5, Duration: 10}, // overlaps a
		{Name: "c", Start: 12, Duration: 3}, // fits after a on lane 0
		{Name: "d", Start: 13, Duration: 1}, // overlaps b and c -> lane 2
	}
	lanes := telemetry.AssignLanes(spans)
	if lanes[0] != 0 || lanes[1] != 1 || lanes[2] != 0 || lanes[3] != 2 {
		t.Fatalf("lanes = %v", lanes)
	}
}

func TestNetworkTracerWindows(t *testing.T) {
	nt := telemetry.NewNetworkTracer(2, telemetry.TracerOptions{TempCounters: true})
	// Router 0: crc for two windows, then secded for one.
	nt.HandleEpoch(noc.EpochSample{Cycle: 1000, Router: 0, WindowMode: noc.ModeCRC, TempC: 50})
	nt.HandleEpoch(noc.EpochSample{Cycle: 2000, Router: 0, WindowMode: noc.ModeCRC, TempC: 51})
	nt.HandleEpoch(noc.EpochSample{Cycle: 3000, Router: 0, WindowMode: noc.ModeSECDED, TempC: 52})
	// Router 1: a gating window and a retransmit instant.
	nt.HandleEvent(noc.Event{Cycle: 500, Kind: noc.EvGate, Router: 1})
	nt.HandleEvent(noc.Event{Cycle: 800, Kind: noc.EvWake, Router: 1})
	nt.HandleEvent(noc.Event{Cycle: 900, Kind: noc.EvHopRetransmit, Router: 1, PacketID: 4})
	// Flit events are off by default.
	nt.HandleEvent(noc.Event{Cycle: 901, Kind: noc.EvInject, Router: 1, PacketID: 4})
	var buf bytes.Buffer
	if err := nt.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	evs := loadTrace(t, buf.Bytes())
	type slice struct{ start, dur float64 }
	modes := map[string]slice{}
	var gated *slice
	instants := 0
	for _, e := range evs {
		switch e["cat"] {
		case "mode":
			modes[e["name"].(string)] = slice{e["ts"].(float64), e["dur"].(float64)}
		case "power":
			s := slice{e["ts"].(float64), e["dur"].(float64)}
			gated = &s
		case "error":
			instants++
		case "flit":
			t.Fatalf("flit instant emitted with FlitEvents off: %v", e)
		}
	}
	// crc windows coalesce: [0, 2000); secded closes at the last epoch.
	if got := modes["crc"]; got != (slice{0, 2000}) {
		t.Fatalf("crc window = %+v, want {0 2000}", got)
	}
	if got := modes["secded"]; got != (slice{2000, 1000}) {
		t.Fatalf("secded window = %+v, want {2000 1000}", got)
	}
	if gated == nil || *gated != (slice{500, 300}) {
		t.Fatalf("gated window = %+v, want {500 300}", gated)
	}
	if instants != 1 {
		t.Fatalf("error instants = %d, want 1", instants)
	}
	counters := 0
	for _, e := range evs {
		if e["ph"] == "C" {
			counters++
		}
	}
	if counters != 3 {
		t.Fatalf("temperature counters = %d, want 3", counters)
	}
}

func TestMetricsRegistry(t *testing.T) {
	r := telemetry.NewRegistry()
	c := r.Counter("jobs_total", "jobs finished")
	c.Add(3)
	if again := r.Counter("jobs_total", ""); again != c {
		t.Fatal("Counter must be idempotent per name")
	}
	g := r.Gauge("queue_depth", "pending jobs")
	g.Set(2.5)
	h := r.Histogram("job_wall_ms", "per-job wall time", []float64{10, 100, 1000})
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE jobs_total counter", "jobs_total 3",
		"# TYPE queue_depth gauge", "queue_depth 2.5",
		"# TYPE job_wall_ms histogram",
		`job_wall_ms_bucket{le="10"} 1`,
		`job_wall_ms_bucket{le="100"} 2`,
		`job_wall_ms_bucket{le="1000"} 2`,
		`job_wall_ms_bucket{le="+Inf"} 3`,
		"job_wall_ms_sum 5055", "job_wall_ms_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Snapshot order is sorted by name: histogram, then counter, then gauge.
	if !(strings.Index(out, "job_wall_ms") < strings.Index(out, "jobs_total") &&
		strings.Index(out, "jobs_total") < strings.Index(out, "queue_depth")) {
		t.Fatalf("output not name-sorted:\n%s", out)
	}

	mustPanic(t, func() { r.Gauge("jobs_total", "") })
	mustPanic(t, func() { r.Counter("bad name", "") })
	mustPanic(t, func() { r.Counter("0starts_with_digit", "") })
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}

func smallSim() (core.SimConfig, traffic.SyntheticConfig) {
	sim := core.SimConfig{Width: 4, Height: 4, Seed: 7, MaxCycles: 400_000}
	gen := traffic.SyntheticConfig{
		Width: 4, Height: 4, Pattern: traffic.Uniform,
		InjectionRate: 0.08, PacketFlits: 4, Packets: 3000, Seed: 7,
	}
	return sim, gen
}

// The overhead contract, end to end: a run with every telemetry hook
// attached must produce a Result bit-identical to an unhooked run, the
// flight recorder must have seen traffic, and the exported trace must be
// loadable JSON with mode slices on router tracks.
func TestInstrumentedRunIsBitIdentical(t *testing.T) {
	sim, genCfg := smallSim()
	gen1, err := traffic.NewSynthetic(genCfg)
	if err != nil {
		t.Fatal(err)
	}
	plainOut, err := core.Simulate(nil, core.TechIntelliNoC, sim, gen1)
	if err != nil {
		t.Fatal(err)
	}
	plain := plainOut.Result

	gen2, err := traffic.NewSynthetic(genCfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.NewRecorder(64)
	nt := telemetry.NewNetworkTracer(16, telemetry.TracerOptions{FlitEvents: true, TempCounters: true})
	decisions := 0
	instrumentedOut, err := core.Simulate(nil, core.TechIntelliNoC, sim, gen2,
		core.WithInstrument(func(n *noc.Network, ctrl noc.Controller) {
			n.SetEventHook(func(e noc.Event) {
				rec.RecordEvent(e)
				nt.HandleEvent(e)
			})
			n.SetEpochHook(func(s noc.EpochSample) {
				rec.RecordEpoch(s)
				nt.HandleEpoch(s)
			})
			ctrl.(*core.RLController).DecisionHook = func(d rl.DecisionSample) {
				decisions++
				rec.RecordDecision(d)
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	instrumented := instrumentedOut.Result
	if instrumented != plain {
		t.Fatalf("telemetry hooks changed the Result:\nplain:        %+v\ninstrumented: %+v", plain, instrumented)
	}
	if rec.Total() == 0 || decisions == 0 {
		t.Fatalf("hooks never fired: recorded=%d decisions=%d", rec.Total(), decisions)
	}
	var buf bytes.Buffer
	if err := nt.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	evs := loadTrace(t, buf.Bytes())
	modeSlices := 0
	for _, e := range evs {
		if e["cat"] == "mode" && e["ph"] == "X" {
			modeSlices++
		}
	}
	if modeSlices == 0 {
		t.Fatal("trace has no mode slices")
	}
}

// The sharded-run hook contract: a run with Shards=4 must deliver the
// recorder the exact entry stream of the single-shard run, from a single
// goroutine. The Recorder is deliberately not safe for concurrent use,
// so running this under -race also proves hooks never fire concurrently.
func TestShardedRunTelemetryIdentical(t *testing.T) {
	sim, genCfg := smallSim()
	run := func(shards int) (noc.Result, uint64, []string) {
		gen, err := traffic.NewSynthetic(genCfg)
		if err != nil {
			t.Fatal(err)
		}
		rec := telemetry.NewRecorder(telemetry.DefaultCapacity)
		ssim := sim
		ssim.Shards = shards
		out, err := core.Simulate(nil, core.TechIntelliNoC, ssim, gen, core.WithObserver(rec))
		if err != nil {
			t.Fatal(err)
		}
		return out.Result, rec.Total(), rec.TailLines(0)
	}
	seqRes, seqTotal, seqTail := run(1)
	parRes, parTotal, parTail := run(4)
	if seqRes != parRes {
		t.Fatalf("Results diverge:\nseq %+v\npar %+v", seqRes, parRes)
	}
	if seqTotal == 0 {
		t.Fatal("recorder saw no entries")
	}
	if seqTotal != parTotal {
		t.Fatalf("recorded entry counts diverge: seq %d vs sharded %d", seqTotal, parTotal)
	}
	if len(seqTail) != len(parTail) {
		t.Fatalf("tail lengths diverge: %d vs %d", len(seqTail), len(parTail))
	}
	for i := range seqTail {
		if seqTail[i] != parTail[i] {
			t.Fatalf("tail line %d diverges:\nseq %s\npar %s", i, seqTail[i], parTail[i])
		}
	}
}
