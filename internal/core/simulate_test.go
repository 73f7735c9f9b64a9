package core

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"intellinoc/internal/noc"
	"intellinoc/internal/traffic"
)

func simulateGen(t testing.TB, sim SimConfig, packets int) traffic.Generator {
	t.Helper()
	g, err := traffic.NewSynthetic(traffic.SyntheticConfig{
		Width: sim.Width, Height: sim.Height, Pattern: traffic.Uniform,
		InjectionRate: 0.08, PacketFlits: 4, Packets: packets, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func simulateSim() SimConfig {
	return SimConfig{Width: 4, Height: 4, Seed: 7, MaxCycles: 2_000_000}
}

// attachCounter is a minimal Observer for option-plumbing tests.
type attachCounter struct{ n int }

func (a *attachCounter) Attach(*noc.Network) { a.n++ }

// TestSimulateOptionCombinations sweeps the functional-option surface:
// every combination must run, produce the same Result as the bare call
// (options never perturb simulation state), and deliver summaries and
// observer attachment exactly when asked.
func TestSimulateOptionCombinations(t *testing.T) {
	sim := simulateSim()
	const packets = 400

	base, err := Simulate(nil, TechSECDED, sim, simulateGen(t, sim, packets))
	if err != nil {
		t.Fatal(err)
	}
	if base.Routers != nil {
		t.Fatal("summaries delivered without WithRouterSummaries")
	}

	cases := []struct {
		name        string
		opts        []RunOption
		wantRouters bool
	}{
		{"none", nil, false},
		{"summaries", []RunOption{WithRouterSummaries()}, true},
		{"shards", []RunOption{WithShards(4)}, false},
		{"nil-policy", []RunOption{WithPolicy(nil)}, false},
		{"all", []RunOption{WithPolicy(nil), WithRouterSummaries(), WithShards(3)}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			obs := &attachCounter{}
			opts := append([]RunOption{WithObserver(obs)}, tc.opts...)
			out, err := Simulate(nil, TechSECDED, sim, simulateGen(t, sim, packets), opts...)
			if err != nil {
				t.Fatal(err)
			}
			if out.Result != base.Result {
				t.Fatalf("options changed the Result:\nbase %+v\ngot  %+v", base.Result, out.Result)
			}
			if got := out.Routers != nil; got != tc.wantRouters {
				t.Fatalf("Routers presence = %v, want %v", got, tc.wantRouters)
			}
			if tc.wantRouters && len(out.Routers) != sim.Width*sim.Height {
				t.Fatalf("got %d summaries, want %d", len(out.Routers), sim.Width*sim.Height)
			}
			if obs.n != 1 {
				t.Fatalf("observer attached %d times, want 1", obs.n)
			}
		})
	}
}

// TestSimulateRepeatable pins the determinism contract the deprecated
// Run/RunDetailed wrappers used to anchor: identical Simulate calls (with
// and without router summaries) produce byte-identical results and
// summaries.
func TestSimulateRepeatable(t *testing.T) {
	sim := simulateSim()
	const packets = 400

	plain, err := Simulate(nil, TechCPD, sim, simulateGen(t, sim, packets))
	if err != nil {
		t.Fatal(err)
	}
	out, err := Simulate(nil, TechCPD, sim, simulateGen(t, sim, packets), WithRouterSummaries())
	if err != nil {
		t.Fatal(err)
	}
	again, err := Simulate(nil, TechCPD, sim, simulateGen(t, sim, packets), WithRouterSummaries())
	if err != nil {
		t.Fatal(err)
	}
	if plain.Result != out.Result || again.Result != out.Result {
		t.Fatalf("repeated results diverge: %+v vs %+v vs %+v", plain.Result, out.Result, again.Result)
	}
	if len(again.Routers) != len(out.Routers) {
		t.Fatalf("summary lengths diverge: %d vs %d", len(again.Routers), len(out.Routers))
	}
	for i := range again.Routers {
		if again.Routers[i] != out.Routers[i] {
			t.Fatalf("summary %d diverges: %+v vs %+v", i, again.Routers[i], out.Routers[i])
		}
	}
}

// countGoroutines samples the goroutine count after giving exited
// goroutines a moment to be reaped.
func countGoroutines() int {
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	return runtime.NumGoroutine()
}

// TestSimulateCancellation cancels runs at random cycles — sequential
// and sharded — and checks three things: the error wraps
// context.Canceled, the partial Result is plausible (cycle count near
// the cancellation point), and no goroutines leak (the sharded worker
// pool must be torn down even on the error path). Run under -race this
// also shakes out unsynchronized shutdown paths.
func TestSimulateCancellation(t *testing.T) {
	sim := simulateSim()
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	before := countGoroutines()

	for _, shards := range []int{0, 4} {
		for trial := 0; trial < 3; trial++ {
			cancelAt := int64(500 + rng.Intn(4000))
			ctx, cancel := context.WithCancel(context.Background())
			fired := false
			out, err := Simulate(ctx, TechCP, sim, simulateGen(t, sim, 50_000),
				WithShards(shards),
				WithInstrument(func(n *noc.Network, _ noc.Controller) {
					n.SetEventHook(func(e noc.Event) {
						if e.Cycle >= cancelAt && !fired {
							fired = true
							cancel()
						}
					})
				}))
			cancel()
			if err == nil {
				t.Fatalf("shards=%d cancelAt=%d: run completed despite cancellation", shards, cancelAt)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("error does not wrap context.Canceled: %v", err)
			}
			if out.Result.Cycles < cancelAt {
				t.Fatalf("partial result ends at cycle %d, before cancellation at %d", out.Result.Cycles, cancelAt)
			}
			if out.Routers != nil {
				t.Fatal("router summaries delivered for a canceled run")
			}
		}
	}

	// Allow the pool-teardown and ctx-propagation goroutines to exit.
	deadline := time.Now().Add(2 * time.Second)
	after := countGoroutines()
	for after > before && time.Now().Before(deadline) {
		after = countGoroutines()
	}
	if after > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines leaked: %d before, %d after\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}

// TestSimulateShardsAllTechniques is the ISSUE's acceptance gate at the
// API level: for each of the five techniques, a shards=4 run must
// reproduce the shards=1 Result exactly — RL training, CPD heuristics,
// retransmissions and all.
func TestSimulateShardsAllTechniques(t *testing.T) {
	sim := simulateSim()
	const packets = 500
	for _, tech := range Techniques() {
		t.Run(tech.String(), func(t *testing.T) {
			seq, err := Simulate(nil, tech, sim, simulateGen(t, sim, packets), WithShards(1))
			if err != nil {
				t.Fatal(err)
			}
			par, err := Simulate(nil, tech, sim, simulateGen(t, sim, packets), WithShards(4))
			if err != nil {
				t.Fatal(err)
			}
			if seq.Result != par.Result {
				t.Fatalf("shards=1 vs shards=4 Results diverge:\nseq %+v\npar %+v", seq.Result, par.Result)
			}
		})
	}
}

// TestSimConfigShardsDigestNeutral guards the harness-dedup contract:
// Shards is execution strategy, not configuration, so it must never
// reach the canonical JSON that spec digests hash.
func TestSimConfigShardsDigestNeutral(t *testing.T) {
	a := simulateSim()
	b := a
	b.Shards = 4
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Fatalf("Shards leaked into the canonical JSON:\n%s\n%s", ja, jb)
	}
}
