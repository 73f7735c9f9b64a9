package core

import (
	"context"
	"fmt"

	"intellinoc/internal/noc"
	"intellinoc/internal/traffic"
)

// Observer is anything that attaches itself to a network before the
// first cycle — the telemetry Recorder, NetworkTracer, and metrics
// bridges all satisfy it. Attach runs after the network and controller
// are built but before stepping starts, so hooks see every event of the
// run. Hooks installed this way fire from a single goroutine even on
// sharded runs (see noc.SetEventHook).
type Observer interface {
	Attach(n *noc.Network)
}

// RunOption customizes one Simulate call. Options compose left to
// right; the zero set reproduces the plain Run behavior.
type RunOption func(*runOptions)

type runOptions struct {
	policy     *Policy
	summaries  bool
	observers  []Observer
	instrument func(*noc.Network, noc.Controller)
	shards     int
	hasShards  bool
}

// WithPolicy deploys a pre-trained policy (TechIntelliNoC only; nil is
// accepted and means "train online from scratch", matching Run's
// policy parameter).
func WithPolicy(p *Policy) RunOption {
	return func(o *runOptions) { o.policy = p }
}

// WithRouterSummaries requests per-router summaries (temperatures,
// wear, MTTF, energy, traffic) in RunOutput.Routers.
func WithRouterSummaries() RunOption {
	return func(o *runOptions) { o.summaries = true }
}

// WithObserver attaches a telemetry observer to the run. May be given
// multiple times; observers attach in option order.
func WithObserver(obs Observer) RunOption {
	return func(o *runOptions) {
		if obs != nil {
			o.observers = append(o.observers, obs)
		}
	}
}

// WithInstrument registers a raw instrumentation callback invoked with
// the built network and the deployed controller before the first cycle.
// It is the low-level sibling of WithObserver for call sites that need
// the controller (e.g. to install an RL decision hook).
func WithInstrument(fn func(*noc.Network, noc.Controller)) RunOption {
	return func(o *runOptions) { o.instrument = fn }
}

// WithShards steps the mesh with n parallel shards (see
// noc.Config.Shards). Results are bit-identical at any shard count; 0
// or 1 selects the sequential stepper. Overrides SimConfig.Shards.
func WithShards(n int) RunOption {
	return func(o *runOptions) { o.shards = n; o.hasShards = true }
}

// RunOutput is everything a Simulate call produces. Routers is nil
// unless WithRouterSummaries was given.
type RunOutput struct {
	Result  noc.Result
	Routers []noc.RouterSummary
}

// Simulate runs one technique over one workload and is the single
// entry point the Run / RunDetailed / RunInstrumented trio collapsed
// into. A nil ctx (or context.Background()) runs to completion exactly
// like Run; a cancelable ctx is polled during stepping and, on
// cancellation, Simulate returns the partial Result accumulated so far
// together with an error wrapping ctx.Err(). Worker goroutines of a
// sharded run are always torn down before Simulate returns.
func Simulate(ctx context.Context, tech Technique, sim SimConfig, gen traffic.Generator, opts ...RunOption) (RunOutput, error) {
	var o runOptions
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	sim = sim.withDefaults()
	if o.hasShards {
		sim.Shards = o.shards
	}
	cfg := tech.NetworkConfig(sim.Width, sim.Height)
	cfg.TimeStepCycles = sim.TimeStepCycles
	cfg.BaseErrorRate = sim.BaseErrorRate
	cfg.ForcedErrorRate = sim.ForcedErrorRate
	cfg.Seed = sim.Seed
	cfg.VerifyPayloads = sim.VerifyPayloads
	cfg.DependencyWindow = sim.DependencyWindow
	cfg.ControlFaultRate = sim.ControlFaultRate
	cfg.Shards = sim.Shards
	sim.applyMicroarch(&cfg)

	ctrl, initial := controllerFor(tech, sim, cfg, o.policy)
	n, err := noc.New(cfg, gen, ctrl)
	if err != nil {
		return RunOutput{}, fmt.Errorf("core: building %s network: %w", tech, err)
	}
	defer n.Close()
	n.SetInitialMode(initial)
	for _, obs := range o.observers {
		obs.Attach(n)
	}
	if o.instrument != nil {
		o.instrument(n, ctrl)
	}
	res, err := n.RunContext(ctx, sim.MaxCycles)
	out := RunOutput{Result: res}
	if err != nil {
		return out, fmt.Errorf("core: running %s: %w", tech, err)
	}
	if o.summaries {
		out.Routers = n.PerRouter()
	}
	return out, nil
}
