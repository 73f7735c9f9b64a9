package noc

import (
	"fmt"
	"io"
)

// EventKind enumerates the simulator's observable events.
type EventKind int

const (
	// EvInject: a flit entered the network at its source NIC.
	EvInject EventKind = iota
	// EvDeliver: a flit moved from a channel into a router buffer.
	EvDeliver
	// EvTraverse: a flit won switch allocation and left on a link.
	EvTraverse
	// EvBypass: a flit crossed a gated router's bypass switch.
	EvBypass
	// EvEject: a flit reached its destination NIC.
	EvEject
	// EvHopRetransmit: a per-hop NACK forced a link retransmission.
	EvHopRetransmit
	// EvE2ERetransmit: the destination CRC forced a packet retry.
	EvE2ERetransmit
	// EvGate: a router powered off.
	EvGate
	// EvWake: a router began waking up.
	EvWake
	// EvModeChange: a controller switched a router's operation mode.
	EvModeChange
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EvInject:
		return "inject"
	case EvDeliver:
		return "deliver"
	case EvTraverse:
		return "traverse"
	case EvBypass:
		return "bypass"
	case EvEject:
		return "eject"
	case EvHopRetransmit:
		return "hop-retransmit"
	case EvE2ERetransmit:
		return "e2e-retransmit"
	case EvGate:
		return "gate"
	case EvWake:
		return "wake"
	case EvModeChange:
		return "mode-change"
	}
	return "unknown"
}

// Event is one simulator occurrence, delivered to the hook installed with
// SetEventHook.
type Event struct {
	Cycle    int64
	Kind     EventKind
	Router   int
	PacketID uint64
	FlitSeq  int
	Mode     Mode // for EvModeChange
}

// String renders the event as one trace line.
func (e Event) String() string {
	switch e.Kind {
	case EvGate, EvWake:
		return fmt.Sprintf("%8d %-14s router=%d", e.Cycle, e.Kind, e.Router)
	case EvModeChange:
		return fmt.Sprintf("%8d %-14s router=%d mode=%s", e.Cycle, e.Kind, e.Router, e.Mode)
	default:
		return fmt.Sprintf("%8d %-14s router=%d pkt=%d.%d", e.Cycle, e.Kind, e.Router, e.PacketID, e.FlitSeq)
	}
}

// SetEventHook installs a callback invoked for every simulator event. Pass
// nil to disable. The hook runs synchronously on the stepping goroutine —
// never concurrently, even on a sharded run (Config.Shards > 1): shards
// buffer their events and the coordinator replays them in one fixed
// order, the same at every shard count. Hook consumers
// (recorder, tracer) may therefore stay unsynchronized. Keep the hook
// cheap (or buffer). Intended for debugging and visualization of small
// runs — a busy 8×8 mesh emits millions of events.
func (n *Network) SetEventHook(hook func(Event)) { n.eventHook = hook }

// StreamEvents installs a hook that writes one formatted line per event.
func (n *Network) StreamEvents(w io.Writer) {
	n.SetEventHook(func(e Event) { fmt.Fprintln(w, e.String()) })
}

// EpochSample summarizes one router's just-closed RL control window. One
// sample per router is delivered at every control step (every
// Config.TimeStepCycles cycles), giving telemetry the per-epoch trajectory
// the end-of-run Result aggregates away: mode decisions, temperature,
// threshold-voltage shift, and the window's error/retransmission activity.
type EpochSample struct {
	// Cycle is the control-step cycle closing the window.
	Cycle  int64
	Router int
	// WindowMode is the mode that was in force during the window;
	// NextMode is the controller's choice for the next one.
	WindowMode Mode
	NextMode   Mode
	// Gated reports whether the router is powered off after the step.
	Gated bool
	// TempC is the tile temperature fed to the controller.
	TempC float64
	// DeltaVth is the accumulated NBTI+HCI threshold-voltage shift (V).
	DeltaVth float64
	// AgingFactor is the error-rate multiplier derived from DeltaVth.
	AgingFactor float64
	// AvgLatencyCycles and PowerMilliwatts are the window observables the
	// reward function consumed (latency falls back to the last non-empty
	// window, exactly as the controller sees it).
	AvgLatencyCycles float64
	PowerMilliwatts  float64
	// ErrHist counts link traversals by error-bit class (0, 1, 2, ≥3)
	// within the window; HopRetransmits counts the detected-error NACK
	// re-sends among them.
	ErrHist        [4]uint64
	HopRetransmits uint64
}

// String renders the sample as one trace line.
func (s EpochSample) String() string {
	return fmt.Sprintf("%8d epoch          router=%d mode=%s->%s temp=%.1fC dVth=%.4g lat=%.1f pwr=%.2fmW retrans=%d",
		s.Cycle, s.Router, s.WindowMode, s.NextMode, s.TempC, s.DeltaVth, s.AvgLatencyCycles, s.PowerMilliwatts, s.HopRetransmits)
}

// SetEpochHook installs a callback invoked with every router's EpochSample
// at each control step. Pass nil to disable. Like SetEventHook, the hook
// runs synchronously on the stepping goroutine and is never invoked
// concurrently — control steps run outside the sharded phases, so the
// guarantee holds at any shard count. The disabled cost is a single nil
// check per router per control step, off the per-cycle path.
func (n *Network) SetEpochHook(hook func(EpochSample)) { n.epochHook = hook }

// emit delivers an event to the hook, if any. The nil check is the only
// cost on the hot path when tracing is off.
func (n *Network) emit(e Event) {
	if n.eventHook != nil {
		n.eventHook(e)
	}
}

func (n *Network) emitFlit(cycle int64, kind EventKind, router int, f *Flit) {
	if n.eventHook != nil {
		n.eventHook(Event{Cycle: cycle, Kind: kind, Router: router, PacketID: f.PacketID, FlitSeq: f.Seq})
	}
}
