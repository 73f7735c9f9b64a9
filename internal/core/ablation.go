package core

import (
	"fmt"

	"intellinoc/internal/noc"
	"intellinoc/internal/traffic"
)

// Ablation removes one of IntelliNoC's three architectural techniques (or
// its RL control) to quantify each one's contribution — the design-choice
// ablations DESIGN.md calls out. Every variant keeps the rest of the
// design intact.
type Ablation int

const (
	// AblationNone is full IntelliNoC.
	AblationNone Ablation = iota
	// AblationNoBypass removes the stress-relaxing bypass: the mode-0
	// action degrades to mode 1 and the bypass hardware (and its BST
	// extensions) is absent.
	AblationNoBypass
	// AblationNoAdaptiveECC pins the error control to static SECDED:
	// the policy can still choose mode 0 (bypass) but modes 1, 3 and 4
	// degrade to mode 2.
	AblationNoAdaptiveECC
	// AblationNoRelaxed removes relaxed transmission: mode 4 degrades
	// to mode 3 (the strongest remaining protection).
	AblationNoRelaxed
	// AblationNoRL replaces the Q-learning policy with CPD's
	// error-level heuristic on the full IntelliNoC hardware.
	AblationNoRL
)

// Ablations lists every variant including the full design.
func Ablations() []Ablation {
	return []Ablation{AblationNone, AblationNoBypass, AblationNoAdaptiveECC, AblationNoRelaxed, AblationNoRL}
}

// String names the variant.
func (a Ablation) String() string {
	switch a {
	case AblationNone:
		return "full"
	case AblationNoBypass:
		return "-bypass"
	case AblationNoAdaptiveECC:
		return "-adaptiveECC"
	case AblationNoRelaxed:
		return "-relaxed"
	case AblationNoRL:
		return "-RL"
	}
	return "unknown"
}

// modeFilter wraps a controller and degrades disallowed modes, leaving
// the inner policy's learning loop untouched (the applied mode differs
// from the chosen action only for removed hardware, which is exactly what
// an ablated chip would do).
type modeFilter struct {
	inner noc.Controller
	remap func(noc.Mode) noc.Mode
}

func (m modeFilter) NextMode(obs noc.Observation) noc.Mode {
	return m.remap(m.inner.NextMode(obs))
}

// RunAblation simulates one IntelliNoC ablation variant.
func RunAblation(ab Ablation, sim SimConfig, gen traffic.Generator, policy *Policy) (noc.Result, error) {
	sim = sim.withDefaults()
	cfg := TechIntelliNoC.NetworkConfig(sim.Width, sim.Height)
	cfg.TimeStepCycles = sim.TimeStepCycles
	cfg.BaseErrorRate = sim.BaseErrorRate
	cfg.ForcedErrorRate = sim.ForcedErrorRate
	cfg.Seed = sim.Seed
	cfg.VerifyPayloads = sim.VerifyPayloads
	cfg.DependencyWindow = sim.DependencyWindow
	cfg.ControlFaultRate = sim.ControlFaultRate
	cfg.Shards = sim.Shards
	sim.applyMicroarch(&cfg)

	var inner noc.Controller
	if ab == AblationNoRL {
		cfg.RLTable = false
		inner = CPDController{}
	} else if policy != nil {
		ctrl := policy.ctrl.Clone(sim.Seed + 17)
		ctrl.SetEpsilon(sim.Epsilon)
		inner = ctrl
	} else {
		inner = NewRLController(cfg.Nodes(), sim.rlConfig())
	}

	var remap func(noc.Mode) noc.Mode
	switch ab {
	case AblationNone, AblationNoRL:
		remap = func(m noc.Mode) noc.Mode { return m }
	case AblationNoBypass:
		cfg.Bypass = false
		remap = func(m noc.Mode) noc.Mode {
			if m == noc.ModeBypass {
				return noc.ModeCRC
			}
			return m
		}
	case AblationNoAdaptiveECC:
		remap = func(m noc.Mode) noc.Mode {
			if m == noc.ModeBypass {
				return m
			}
			return noc.ModeSECDED
		}
	case AblationNoRelaxed:
		remap = func(m noc.Mode) noc.Mode {
			if m == noc.ModeRelaxed {
				return noc.ModeDECTED
			}
			return m
		}
	default:
		return noc.Result{}, fmt.Errorf("core: unknown ablation %d", ab)
	}

	n, err := noc.New(cfg, gen, modeFilter{inner: inner, remap: remap})
	if err != nil {
		return noc.Result{}, fmt.Errorf("core: building ablation %s: %w", ab, err)
	}
	defer n.Close()
	n.SetInitialMode(remap(noc.ModeCRC))
	res, err := n.RunUntilDrained(sim.MaxCycles)
	if err != nil {
		return res, fmt.Errorf("core: running ablation %s: %w", ab, err)
	}
	return res, nil
}
