package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"intellinoc/internal/core"
	"intellinoc/internal/noc"
	"intellinoc/internal/traffic"
)

// meshSize sizes the mesh16-uniform workload; tests use a small one.
type meshSize struct {
	Width  int
	Window int64 // simulated cycles per timed window
	// WarmWindows is the warm-up, in windows. It is the same for every
	// run, so that setup_s times a fixed amount of work; Warm checks
	// within it where steady state was reached (noc.warmup_cycles).
	WarmWindows int
	Warm        plateau
	// Check is the cycle at which each set-up's fingerprint and
	// delivered-flit count are taken; a multiple of Window past the
	// warm-up.
	Check  int64
	Setups int
	// Expect, when set, holds the recorded outputs for Expect.Seed.
	Expect *meshExpect
}

// meshExpect is the recorded state of the mesh at the check cycle.
type meshExpect struct {
	Seed           int64  `json:"seed"`
	CheckCycle     int64  `json:"check_cycle"`
	Fingerprint    string `json:"fingerprint"`
	FlitsDelivered uint64 `json:"flits_delivered"`
}

// meshFull is the benchmark's mesh16-uniform. Uniform traffic saturates
// a k-wide mesh near 4/k flits/node/cycle (bisection bound); 1.6/k is
// ~40% of that, so queues reach a steady occupancy instead of growing
// for the whole measurement.
var meshFull = meshSize{
	Width:  16,
	Window: 500,
	// The plateau shows after ~2500 cycles at seeds 1-10; 4000 leave a
	// margin.
	WarmWindows: 8,
	// Host cycles/s within 25% (this much a shared host moves from one
	// window to the next) and delivered flits/cycle within 8% across
	// four consecutive windows.
	Warm:   plateau{Windows: 4, Tol: []float64{0.25, 0.08}},
	Check:  8000,
	Setups: 9,
}

// wallCycles is the simulated span mesh16-uniform's wall_s is quoted
// for.
const wallCycles = 10000

// loadMeshExpect reads the recorded mesh outputs from baseline.json.
func loadMeshExpect(root string) (*meshExpect, error) {
	raw, err := os.ReadFile(filepath.Join(root, "benchmark", "baseline.json"))
	if err != nil {
		return nil, err
	}
	var b struct {
		Expected struct {
			Mesh meshExpect `json:"mesh16-uniform"`
		} `json:"expected"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("baseline.json: %w", err)
	}
	if b.Expected.Mesh.CheckCycle == 0 {
		return nil, fmt.Errorf("baseline.json: no expected mesh16-uniform outputs")
	}
	return &b.Expected.Mesh, nil
}

// countingGen wraps a traffic.Generator with a call count and busy time
// around Next (traced runs only).
type countingGen struct {
	gen   traffic.Generator
	calls int64
	busy  time.Duration
}

func (g *countingGen) Next() (traffic.Packet, bool) {
	t := time.Now()
	p, ok := g.gen.Next()
	g.busy += time.Since(t)
	g.calls++
	return p, ok
}

// newMesh builds the SECDED mesh under open-loop uniform traffic. With
// counted set, Next calls go through a countingGen.
func newMesh(sz meshSize, seed int64, counted bool) (*noc.Network, *countingGen, noc.Config, error) {
	cfg := core.TechSECDED.NetworkConfig(sz.Width, sz.Width)
	cfg.Seed = seed
	syn, err := traffic.NewSynthetic(traffic.SyntheticConfig{
		Width: sz.Width, Height: sz.Width, Pattern: traffic.Uniform,
		InjectionRate: 1.6 / float64(sz.Width), PacketFlits: 4, Packets: 1 << 40, Seed: seed,
	})
	if err != nil {
		return nil, nil, cfg, err
	}
	var gen traffic.Generator = syn
	var cg *countingGen
	if counted {
		cg = &countingGen{gen: syn}
		gen = cg
	}
	n, err := noc.New(cfg, gen, nil)
	return n, cg, cfg, err
}

// meshRun is the state of one measured mesh.
type meshRun struct {
	sz  meshSize
	n   *noc.Network
	cfg noc.Config
	gen *countingGen
	tr  *tracer
	out *outcome

	// measuring marks windows of the measured phase; traced runs record
	// per-step host time in them, split by whether the step ends on a
	// thermal/control boundary, and Next calls.
	measuring              bool
	steps, plain, boundary []float64
	stepBusy               time.Duration
	nextCalls              int64
	nextBusy               time.Duration
}

// window advances exactly sz.Window cycles with StepUntil (Step would
// fast-forward idle stretches, so a count of Step calls is not a fixed
// amount of simulated time) and returns its host time. It fails the run
// when no flit was delivered: the network has stopped making progress.
func (m *meshRun) window() (time.Duration, bool) {
	target := m.n.Cycle() + m.sz.Window
	before := m.n.FlitsDelivered()
	t0 := time.Now()
	if m.tr == nil {
		m.n.StepUntil(target)
	} else {
		thermal, control := int64(m.cfg.ThermalIntervalCycles), int64(m.cfg.TimeStepCycles)
		calls, busy := m.gen.calls, m.gen.busy
		for m.n.Cycle() < target {
			next := m.n.Cycle() + 1
			s0 := time.Now()
			m.n.StepUntil(next)
			d := time.Since(s0)
			if !m.measuring {
				continue
			}
			m.stepBusy += d
			us := float64(d.Nanoseconds()) / 1e3
			m.steps = append(m.steps, us)
			if next%thermal == 0 || next%control == 0 {
				m.boundary = append(m.boundary, us)
			} else {
				m.plain = append(m.plain, us)
			}
		}
		if m.measuring {
			m.nextCalls += m.gen.calls - calls
			m.nextBusy += m.gen.busy - busy
		}
	}
	d := time.Since(t0)
	if m.tr != nil {
		m.tr.span(tidWindow, fmt.Sprintf("window @%d", target-m.sz.Window), "noc", t0, t0.Add(d), nil)
	}
	ok := m.n.FlitsDelivered() > before
	m.out.Ops.add(ok)
	if !ok {
		m.out.fail("mesh: no flit delivered in cycles [%d, %d): deadlock", target-m.sz.Window, target)
	}
	return d, ok
}

// warmUp steps the WarmWindows windows of the warm-up and returns the
// cycle at which host cycles/s and delivered flits/cycle first
// plateaued in them (0 when they did not).
func (m *meshRun) warmUp() (plateauAt int64, ok bool) {
	var rate, flits []float64
	for len(rate) < m.sz.WarmWindows {
		before := m.n.FlitsDelivered()
		d, ok := m.window()
		if !ok {
			return 0, false
		}
		rate = append(rate, float64(m.sz.Window)/d.Seconds())
		flits = append(flits, float64(m.n.FlitsDelivered()-before)/float64(m.sz.Window))
		if plateauAt == 0 && m.sz.Warm.reached(rate, flits) {
			plateauAt = m.n.Cycle()
		}
	}
	return plateauAt, true
}

func runMesh(sz meshSize, seed int64, budget time.Duration, tr *tracer) (*outcome, error) {
	out := newOutcome()
	m := &meshRun{sz: sz, tr: tr, out: out}
	defer func() {
		if m.n != nil {
			m.n.Close()
		}
	}()

	// Each pass builds the mesh, warms it up, steps on to the check cycle
	// (its state there is the first result a user of a fixed-length
	// simulation gets; every pass must reach the same one), then times
	// windows for its share of the budget. Spreading the set-ups over the
	// run lets every metric see the same stretch of host time.
	if int64(sz.WarmWindows)*sz.Window >= sz.Check {
		return nil, fmt.Errorf("mesh: a %d-window warm-up runs past the check cycle %d", sz.WarmWindows, sz.Check)
	}
	var setupS, newMS, warmCycles, firstMS, winS []float64
	unsteady := 0
	var states []string
	var fp, flitsAtCheck, allocs uint64
	var cycles int64
	heap := startHeapSampler()
	defer heap.peakMB()
	for i := 0; i < sz.Setups; i++ {
		if m.n != nil {
			m.n.Close()
			m.n = nil // unreachable before the next one is built
		}
		t0 := time.Now()
		n, gen, cfg, err := newMesh(sz, seed, tr != nil)
		if err != nil {
			return nil, err
		}
		tNew := time.Now()
		m.n, m.gen, m.cfg = n, gen, cfg
		warm, ok := m.warmUp()
		if !ok {
			break
		}
		t1 := time.Now()
		if warm == 0 {
			unsteady++
			warm = n.Cycle()
		}
		for n.Cycle() < sz.Check {
			if _, ok := m.window(); !ok {
				break
			}
		}
		if len(out.Problems) > 0 {
			break
		}
		t2 := time.Now()
		fp, flitsAtCheck = n.Fingerprint(), n.FlitsDelivered()
		if err := n.CheckInvariants(); err != nil {
			out.fail("mesh: pass %d: invariants at cycle %d: %v", i, sz.Check, err)
		}
		tr.span(tidPhase, "setup: noc.New + warm-up", "noc", t0, t1, map[string]any{"plateau_cycle": warm})
		tr.span(tidPhase, "to check cycle", "noc", t1, t2, nil)
		setupS = append(setupS, t1.Sub(t0).Seconds())
		newMS = append(newMS, float64(tNew.Sub(t0).Nanoseconds())/1e6)
		warmCycles = append(warmCycles, float64(warm))
		firstMS = append(firstMS, float64(t2.Sub(t0).Nanoseconds())/1e6)
		states = append(states, fmt.Sprintf("fingerprint %#x, %d flits delivered", fp, flitsAtCheck))

		// Measured windows: this pass's share of the budget, and at least
		// one.
		m.measuring = true
		allocs0, c0 := allocObjects(), n.Cycle()
		start := time.Now()
		var pass []float64
		for time.Since(start) < budget/time.Duration(sz.Setups) || len(pass) == 0 {
			d, ok := m.window()
			if !ok {
				break
			}
			pass = append(pass, d.Seconds())
		}
		end := time.Now()
		allocs += allocObjects() - allocs0
		cycles += n.Cycle() - c0
		m.measuring = false
		tr.span(tidPhase, "measured windows", "noc", start, end, map[string]any{"windows": len(pass)})
		winS = append(winS, pass...)
		if err := n.CheckInvariants(); err != nil {
			out.fail("mesh: pass %d: invariants at cycle %d: %v", i, n.Cycle(), err)
		}
		if len(out.Problems) > 0 {
			break
		}
	}
	peak := heap.peakMB()
	for i, st := range states {
		if st != states[0] {
			out.fail("mesh: pass %d reached %s at cycle %d, pass 0 %s", i, st, sz.Check, states[0])
		}
	}
	if len(out.Problems) > 0 {
		return out, nil
	}

	out.IDs["mesh.fingerprint"] = fmt.Sprintf("%#x", fp)
	out.IDs["mesh.flits_at_check"] = fmt.Sprint(flitsAtCheck)
	out.logf("mesh: cycle %d fingerprint %#x, %d flits delivered", sz.Check, fp, flitsAtCheck)
	if unsteady > 0 {
		out.logf("mesh: %d of %d warm-ups showed no plateau in %d cycles", unsteady, len(setupS), int64(sz.WarmWindows)*sz.Window)
	}
	if e := sz.Expect; e != nil && e.Seed == seed {
		if e.CheckCycle != sz.Check || e.Fingerprint != fmt.Sprintf("%#x", fp) || e.FlitsDelivered != flitsAtCheck {
			out.fail("mesh: at cycle %d got fingerprint %#x and %d flits, recorded %s and %d at cycle %d",
				sz.Check, fp, flitsAtCheck, e.Fingerprint, e.FlitsDelivered, e.CheckCycle)
		}
	}

	winMS := make([]float64, len(winS))
	for i, s := range winS {
		winMS[i] = s * 1e3
	}
	win := fmt.Sprintf("%d-cycle window", sz.Window)
	out.set("setup_s", median(setupS), fmt.Sprintf("median of %d set-ups (noc.New + %d-cycle warm-up)", len(setupS), int64(sz.WarmWindows)*sz.Window))
	out.set("peak_heap_mb", peak, "peak live heap, measured windows")
	out.set("cycles_per_s", float64(sz.Window)/median(winS), "simulated cycles per host second, median "+win)
	// wall_s and op_ms_p50 restate cycles_per_s; this workload has no
	// other wall time to report under those names.
	out.set("wall_s", median(winS)*wallCycles/float64(sz.Window), fmt.Sprintf("%d cycles at the median window's rate", wallCycles))
	out.set("first_record_ms", median(firstMS), fmt.Sprintf("noc.New to the state at cycle %d, median of %d passes", sz.Check, len(firstMS)))
	out.set("op_ms_p50", median(winMS), win)
	out.setTail("op_ms_tail", tailOf(winMS))
	// Counted in both halves of a traced run; the report takes the
	// untraced one, where only the simulator allocates.
	out.set("noc.allocs_per_kcycle", float64(allocs)/(float64(cycles)/1000), "untraced windows")

	if tr == nil {
		return out, nil
	}
	out.set("noc.new_ms", median(newMS), "")
	out.set("noc.warmup_cycles", median(warmCycles), fmt.Sprintf("first plateau within the %d-cycle warm-up", int64(sz.WarmWindows)*sz.Window))
	out.set("noc.step_us_p50", median(m.steps), fmt.Sprintf("%d steps", len(m.steps)))
	out.setTail("noc.step_us_tail", tailOf(m.steps))
	out.set("noc.plain_step_us_p50", median(m.plain), fmt.Sprintf("%d steps", len(m.plain)))
	out.set("noc.boundary_step_us_p50", median(m.boundary), fmt.Sprintf("%d steps ending on a thermal/control boundary", len(m.boundary)))
	out.set("noc.flits_per_cycle", float64(flitsAtCheck)/float64(sz.Check), fmt.Sprintf("cycles [0, %d)", sz.Check))
	out.set("noc.self_s", (m.stepBusy - m.nextBusy).Seconds(), "Step busy minus Next busy, measured windows")
	if m.nextCalls > 0 {
		out.set("traffic.next_ns", float64(m.nextBusy.Nanoseconds())/float64(m.nextCalls), fmt.Sprintf("%d calls", m.nextCalls))
	}
	out.set("traffic.next_share", m.nextBusy.Seconds()/m.stepBusy.Seconds(), "share of Step busy time")
	out.set("traffic.self_s", m.nextBusy.Seconds(), "")
	tr.aggregate("noc.Step", time.Now(), int64(len(m.steps)), m.stepBusy)
	tr.aggregate("traffic.Next", time.Now(), m.nextCalls, m.nextBusy)
	return out, nil
}
