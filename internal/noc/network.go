package noc

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"intellinoc/internal/ecc"
	"intellinoc/internal/fault"
	"intellinoc/internal/power"
	"intellinoc/internal/stats"
	"intellinoc/internal/thermal"
	"intellinoc/internal/traffic"
)

// packetJob is one logical packet from the workload, surviving end-to-end
// retransmissions.
type packetJob struct {
	id          uint64
	src, dst    int
	flits       int
	injectCycle int64 // latency baseline (trace time; NIC start if closed-loop)
	gap         int64 // compute gap after the previous packet of this source
	retries     int
	notBefore   int64 // e2e retry eligibility (after the NACK reaches the source)
}

// packetInfo tracks a packet's delivery progress at the destination, and
// the routers its head flit traversed — the paper's reward attributes each
// flit transmission's end-to-end ACK latency to the *transmitting* router,
// so every router on the path observes the packet's final latency.
type packetInfo struct {
	job          *packetJob
	flitsArrived int
	corrupt      bool
	path         []uint16
}

// packetTable maps sequential packet ids to in-flight packetInfo records.
// Ids are dense and retire roughly in order, so a base-offset slice beats
// a hash map: the lookups on the head-flit path-recording and eject paths
// become a bounds check plus an index instead of a hash. The table tracks
// only the live id window — delete advances base past the retired prefix.
type packetTable struct {
	base    uint64
	entries []*packetInfo
}

func (t *packetTable) get(id uint64) *packetInfo {
	if id < t.base || id-t.base >= uint64(len(t.entries)) {
		return nil
	}
	return t.entries[id-t.base]
}

// append registers the next sequential packet id (base+len(entries)).
func (t *packetTable) append(pi *packetInfo) {
	t.entries = append(t.entries, pi)
}

// delete clears a retired packet and advances the base past the completed
// prefix. Slicing forward keeps the remaining capacity for append, so the
// backing array is reused instead of growing with the run.
func (t *packetTable) delete(id uint64) {
	if id < t.base || id-t.base >= uint64(len(t.entries)) {
		return
	}
	t.entries[id-t.base] = nil
	for len(t.entries) > 0 && t.entries[0] == nil {
		t.entries = t.entries[1:]
		t.base++
	}
}

// nic is a node's network interface: a packet queue streamed one packet at
// a time into the local input port (or the bypass switch when the local
// router is gated).
type nic struct {
	queue   []*packetJob
	cur     *packetJob
	curVC   int
	nextIdx int
	vcRR    int
	// Closed-loop (dependency-window) state.
	outstanding   int
	lastInject    int64
	lastTraceTime int64
	seenAny       bool
}

func (q *nic) pending() bool { return q.cur != nil || len(q.queue) > 0 }

// Network is one simulated NoC instance. It is not safe for concurrent
// use; run one Network per goroutine.
type Network struct {
	cfg  Config
	ctrl Controller
	// bufCtrl is ctrl's optional buffer-allocation domain (probed once at
	// construction). Nil for plain controllers; a negative NextBufferAction
	// answer is equivalent.
	bufCtrl BufferController

	routers []*Router
	nics    []*nic
	gen     *traffic.Peeker

	// topo is the wiring/routing geometry (see topology.go); vcClasses
	// caches its dateline class count and nackBound the retransmission
	// liveness ceiling derived from its diameter.
	topo      Topology
	vcClasses int
	nackBound int64

	// Struct-of-arrays router state: the fields every per-cycle scan
	// touches, pulled out of the pointer-heavy Router structs into flat
	// slabs indexed by router id so shard scans walk contiguous memory
	// and the accounting phase is pure slab arithmetic.
	rGated    []bool   // router body power-gated
	rWaking   []int32  // wake-up countdown (0 = not waking)
	rIdle     []int32  // CP-style idle streak toward the gate threshold
	rBufCount []int32  // total flits across the router's input VC buffers
	rStatic   []uint64 // cycles accumulated in the current static state
	// portOcc mirrors each input port's buffer occupancy (nodes×NumPorts,
	// row-major by router id); winOcc is the matching per-window
	// summed-occupancy counter the RL observation reads. Both are
	// maintained incrementally at the three buffer-mutation sites
	// (channel delivery, NIC injection, switch-allocation pop).
	portOcc []int32
	winOcc  []uint64

	injector *fault.Injector
	rng      *rand.Rand
	// payloadRng drives everything that exists only when VerifyPayloads
	// is on (payload byte fill, codec upset-bit placement). Keeping it a
	// separate stream means the knob cannot perturb n.rng, so a seeded
	// run's fault outcomes are bit-identical with the codecs on or off.
	payloadRng *rand.Rand
	grid       *thermal.Grid
	aging      fault.AgingParams
	wear       []fault.Wear
	pparams    power.Params
	meters     []*power.Meter
	lastTJ     []float64 // meter joules at last thermal step
	thermAct   []uint64  // flits forwarded since last thermal step

	secded ecc.Code
	dected ecc.Code

	cycle        int64
	nextFlitID   uint64
	nextPacketID uint64
	outstanding  int
	lastProgress int64
	packets      packetTable

	// linkRe / linkReRelaxed cache each router's per-bit link error rate
	// (normal and relaxed-timing). Temperatures only change at thermal
	// boundaries, so the exponentials behind these rates are evaluated
	// once per router per thermal step instead of twice per link
	// traversal attempt.
	linkRe        []float64
	linkReRelaxed []float64

	// Free lists recycling the steady-state heap objects: flits (the
	// dominant allocation — one per flit per packet transmission), and
	// the per-packet job/progress records. Recycled on ejection.
	flitPool []*Flit
	jobPool  []*packetJob
	infoPool []*packetInfo

	// bufferedFlits counts flits across every router's input buffers; it
	// is zero exactly when no router pipeline has work, which is what
	// arms the idle fast-forward.
	bufferedFlits int

	// shardCount > 0 selects the sharded two-phase stepper (see shard.go);
	// pool holds its lazily started worker goroutines.
	shardCount int
	pool       *shardPool

	// rcDraws banks one control-fault PRNG draw per qualifying (router,
	// port, VC) slot for the current tick, filled by the coordinator in
	// router order so the parallel VA+RC phase can consume the stream
	// without reordering it; rcPredrawn marks the bank valid. Flat
	// layout: (id*NumPorts+p)*cfg.VCs+v. Sequential stepping never banks
	// (rcStage draws inline).
	rcDraws    []float64
	rcPredrawn bool

	powersBuf []float64 // thermalStep scratch

	eventHook func(Event)
	epochHook func(EpochSample)

	// Aggregate statistics.
	latency         *stats.Histogram
	orderViolations uint64
	flitsDelivered  uint64
	pktsDelivered   uint64
	pktsFailed      uint64
	hopRetransmits  uint64
	e2eRetransmits  uint64
	codecDisagree   uint64
	modeBreakdown   stats.ModeBreakdown
	gatedCycles     uint64
	controlFaults   uint64
	errHist         [4]uint64
	tempSum         float64
	tempSamples     uint64
}

// New builds a network from a validated config, a workload, and a
// controller. The controller may be nil, in which case every router stays
// in ModeSECDED (the static baseline).
func New(cfg Config, gen traffic.Generator, ctrl Controller) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ctrl == nil {
		ctrl = StaticController(ModeSECDED)
	}
	pp := power.DefaultParams()
	if cfg.PowerParams != nil {
		pp = *cfg.PowerParams
	}
	tp := thermal.DefaultParams()
	if cfg.ThermalParams != nil {
		tp = *cfg.ThermalParams
	}
	ap := fault.DefaultAgingParams()
	if cfg.AgingParams != nil {
		ap = *cfg.AgingParams
	}
	topo, err := NewTopology(&cfg)
	if err != nil {
		return nil, err
	}
	nodes := topo.Nodes()
	n := &Network{
		cfg:        cfg,
		ctrl:       ctrl,
		topo:       topo,
		vcClasses:  topo.VCClasses(),
		nackBound:  int64(8 * (topo.Diameter() + 2)),
		gen:        traffic.NewPeeker(gen),
		injector:   fault.NewInjector(fault.DefaultTransientModel(cfg.BaseErrorRate), cfg.Seed+1),
		rng:        rand.New(rand.NewSource(cfg.Seed + 2)),
		payloadRng: rand.New(rand.NewSource(cfg.Seed + 3)),
		grid:       thermal.NewGridExtra(cfg.Width, cfg.Height, topo.Nodes()-topo.Cores(), tp),
		aging:      ap,
		wear:       make([]fault.Wear, nodes),
		pparams:    pp,
		meters:     make([]*power.Meter, nodes),
		lastTJ:     make([]float64, nodes),
		thermAct:   make([]uint64, nodes),
		latency:    stats.NewLatencyHistogram(),
		nics:       make([]*nic, nodes),
		secded:     ecc.NewSECDED(),
		dected:     ecc.NewDECTED(),

		linkRe:        make([]float64, nodes),
		linkReRelaxed: make([]float64, nodes),
		powersBuf:     make([]float64, nodes),

		rGated:    make([]bool, nodes),
		rWaking:   make([]int32, nodes),
		rIdle:     make([]int32, nodes),
		rBufCount: make([]int32, nodes),
		rStatic:   make([]uint64, nodes),
		portOcc:   make([]int32, nodes*NumPorts),
		winOcc:    make([]uint64, nodes*NumPorts),
	}
	if bc, ok := ctrl.(BufferController); ok {
		n.bufCtrl = bc
	}
	if cfg.Shards > 1 {
		// Shards partition the dense router-id space into contiguous
		// ranges (geometry-free — see shard.go); more shards than nodes
		// would leave workers with nothing to scan.
		if sc := min(cfg.Shards, nodes); sc > 1 {
			n.shardCount = sc
		}
	}
	n.buildTopology()
	n.refreshLinkRates()
	for i := 0; i < nodes; i++ {
		n.meters[i] = power.NewMeter(pp, cfg.routerPowerConfig())
		n.nics[i] = &nic{curVC: -1}
	}
	// Static policies apply from cycle 0; adaptive controllers start
	// from their own initial mode (SetInitialMode) and take over at the
	// first time-step boundary.
	if sc, ok := ctrl.(StaticController); ok {
		n.SetInitialMode(Mode(sc))
	}
	return n, nil
}

func (n *Network) buildTopology() {
	cfg := n.cfg
	nodes := n.topo.Nodes()
	n.routers = make([]*Router, nodes)
	for id := 0; id < nodes; id++ {
		x, y := n.topo.Coords(id)
		r := &Router{
			id: id, x: x, y: y,
			mode: ModeSECDED, bypassLock: -1,
			lastScheme: ecc.SchemeSECDED,
		}
		for p := 0; p < NumPorts; p++ {
			r.in[p] = nil
			r.out[p] = nil
		}
		// Local input port always exists (injection).
		r.in[PortLocal] = newInputPort(cfg, -1, -1, nil)
		// Local output port: ejection sink (no channel) unless the
		// topology rewires it as a real link below (chiplet interposer
		// routers spend theirs on the vertical entry-node link).
		r.out[PortLocal] = newOutputPort(cfg, -1, -1, nil)
		n.routers[id] = r
	}
	// Wire links; each direction gets its own channel.
	for id := 0; id < nodes; id++ {
		r := n.routers[id]
		for p := 0; p < NumPorts; p++ {
			nb, nbPort := n.topo.Link(id, p)
			if nb < 0 {
				continue
			}
			// Channel occupancy is governed by per-VC credits, not
			// a hard FIFO bound (see newOutputPort).
			ch := newChannel()
			r.out[p] = newOutputPort(cfg, nb, nbPort, ch)
			n.routers[nb].in[nbPort] = newInputPort(cfg, id, p, ch)
		}
	}
	// Build the per-port delivery predicates once, so the per-cycle
	// channel scans don't allocate a fresh closure per call.
	for _, r := range n.routers {
		for p := 0; p < NumPorts; p++ {
			ip := r.in[p]
			if ip == nil {
				continue
			}
			ip, r, p := ip, r, p
			ip.acceptBuf = func(f *Flit) bool {
				return len(ip.vcs[f.VC].buf) < n.cfg.BufDepth
			}
			ip.acceptBypass = func(f *Flit) bool {
				return n.bypassCanForward(r, p, f)
			}
		}
	}
}

func newInputPort(cfg Config, upRouter, upPort int, ch *Channel) *inputPort {
	ip := &inputPort{ch: ch, upRouter: upRouter, upPort: upPort, vcs: make([]inputVC, cfg.VCs)}
	for v := range ip.vcs {
		ip.vcs[v].reset()
	}
	return ip
}

func newOutputPort(cfg Config, downRouter, downPort int, ch *Channel) *outputPort {
	op := &outputPort{ch: ch, downRouter: downRouter, downPort: downPort,
		credits: make([]int, cfg.VCs), share: make([]int, cfg.VCs),
		vcBusy: make([]bool, cfg.VCs), winVCFlits: make([]uint64, cfg.VCs)}
	for v := range op.credits {
		op.credits[v] = vcCredits(&cfg, v)
		op.share[v] = op.credits[v]
	}
	return op
}

// vcCredits is VC v's credit pool on an output port: its downstream
// router-buffer slots plus its share of the channel-buffer stages.
// Partitioning the channel per VC keeps the shared MFAC FIFO from
// wedging one VC's wormhole behind another's — the deadlock-freedom
// argument of Section 3.1.2 ("we still maintain the virtual channels").
// When ChannelStages does not divide evenly, the remainder stages go one
// apiece to the lowest-numbered VCs, so the per-port total always
// reconciles with the actual channel capacity
// (VCs*BufDepth + ChannelStages) instead of silently dropping storage.
func vcCredits(cfg *Config, v int) int {
	c := cfg.BufDepth + cfg.ChannelStages/cfg.VCs
	if v < cfg.ChannelStages%cfg.VCs {
		c++
	}
	return c
}

// route computes the output port and dateline VC class for flit f at
// router r, per the configured topology.
func (n *Network) route(r *Router, f *Flit) (port, vcClass int) {
	return n.topo.Route(r.id, f.Src, f.Dst)
}

// Cycle returns the current simulation cycle.
func (n *Network) Cycle() int64 { return n.cycle }

// FlitsDelivered returns the count of flits ejected so far.
func (n *Network) FlitsDelivered() uint64 { return n.flitsDelivered }

// Step advances the network by one clock cycle — or, when the whole
// network is provably idle, jumps directly to the cycle of the next event
// with the per-cycle accounting batch-applied for the skipped span (see
// idleSpan). The fast-forward is exact: results are bit-identical to
// stepping the idle stretch cycle by cycle.
func (n *Network) Step() { n.step(1 << 62) }

// step is Step bounded so the fast-forward never jumps past maxCycles
// (RunUntilDrained's truncation point).
func (n *Network) step(maxCycles int64) {
	if n.shardCount > 0 {
		n.stepSharded(maxCycles)
		return
	}
	cy := n.cycle

	// 0. Idle fast-forward: with no buffered flits anywhere, the network
	// can only be waiting — on a channel flit's readyAt, a future
	// workload packet, a wake/gate countdown, or a thermal/control
	// boundary. Jump straight there.
	if n.bufferedFlits == 0 && !n.cfg.DisableIdleFastForward {
		if k := n.idleSpan(); k > 1 {
			if lim := maxCycles - cy; k > lim {
				k = lim
			}
			if k > 1 {
				n.fastForward(k)
				return
			}
		}
	}

	// 1. Admit workload packets due this cycle into the NIC queues.
	n.admitStep(cy)

	// 2. Power-state maintenance. Without power gating or bypass no
	// router can ever gate or wake, so the whole pass is a no-op.
	if n.cfg.PowerGating || n.cfg.Bypass {
		for _, r := range n.routers {
			n.powerStateStep(r, cy, nil)
		}
	}

	// 3. Channel deliveries into router buffers (active routers). A
	// mode-0 router keeps its pipeline fully operational until its
	// buffers happen to drain — refusing deliveries to force a drain
	// would let two adjacent mode-0 routers deadlock waiting on each
	// other's credits.
	for id, r := range n.routers {
		if n.active(id) {
			n.deliverChannels(r, cy, nil)
		}
	}

	// 4. Router pipelines (or bypass switches). A router whose input
	// buffers are empty has nothing for RC/VA/SA to do — skip its
	// port×VC scans outright.
	for id, r := range n.routers {
		switch {
		case n.rGated[id] && n.cfg.Bypass:
			n.bypassStep(r, cy)
		case n.active(id) && n.rBufCount[id] > 0:
			n.saStage(r, cy)
			n.vaStage(r, cy)
			n.rcStage(r, cy, nil)
		}
	}

	// 5. NIC injection into active routers (gated mode-0 routers
	// inject through the bypass switch instead).
	n.injectPhase(cy)

	// 6. Per-cycle accounting: pure slab arithmetic (portOcc mirrors the
	// buffer occupancies incrementally; nil ports stay at zero).
	for id := range n.routers {
		n.rStatic[id]++
		if n.rGated[id] {
			n.gatedCycles++
		}
		if n.rBufCount[id] == 0 {
			continue // every port occupancy is zero
		}
		base := id * NumPorts
		for p := 0; p < NumPorts; p++ {
			n.winOcc[base+p] += uint64(n.portOcc[base+p])
		}
	}

	n.cycle++
	if n.cycle%int64(n.cfg.ThermalIntervalCycles) == 0 {
		n.thermalStep()
	}
	if n.cycle%int64(n.cfg.TimeStepCycles) == 0 {
		n.controlStep()
	}
}

// admitStep moves workload packets due this cycle into the NIC queues.
// Packet ids are handed out in pop order, so this phase stays sequential
// under sharded stepping.
func (n *Network) admitStep(cy int64) {
	for {
		pkt, ok := n.gen.PopDue(cy)
		if !ok {
			break
		}
		job := n.newJob()
		*job = packetJob{
			id: n.nextPacketID, src: pkt.Src, dst: pkt.Dst,
			flits: pkt.Flits, injectCycle: pkt.Time,
		}
		q := n.nics[pkt.Src]
		if q.seenAny {
			job.gap = pkt.Time - q.lastTraceTime
		}
		q.lastTraceTime = pkt.Time
		q.seenAny = true
		n.nextPacketID++
		n.packets.append(n.newInfo(job))
		q.queue = append(q.queue, job)
		n.outstanding++
	}
}

// injectPhase runs step 5 for every NIC: injection into active routers,
// wake triggering for gated CP-style ones. Flit ids and the injection
// PRNG draws are handed out in router order, so this phase stays
// sequential under sharded stepping.
func (n *Network) injectPhase(cy int64) {
	for id, q := range n.nics {
		r := n.routers[id]
		if n.active(id) {
			n.injectStep(r, q, cy)
		} else if q.pending() && !n.cfg.Bypass && n.rGated[id] && n.rWaking[id] == 0 {
			n.triggerWake(r, nil)
		}
	}
}

// idleSpan returns the number of upcoming cycles (starting with the
// current one) that are provably pure accounting — no admission, no
// delivery, no pipeline or bypass work, no power-state transition — or 0
// if the current cycle may do work. It never spans a thermal or control
// boundary, a wake/gate transition, a channel flit's readyAt, or the next
// workload packet's injection time, so normal stepping resumes exactly at
// the next event. Callers must ensure bufferedFlits == 0.
func (n *Network) idleSpan() int64 {
	cy := n.cycle
	// A pending or due workload packet means admission/injection work.
	next := n.gen.NextTime()
	if next >= 0 && next <= cy {
		return 0
	}
	for _, q := range n.nics {
		if q.pending() {
			return 0
		}
	}
	bound := int64(1) << 62
	if next > cy {
		bound = next - cy
	}
	for id, r := range n.routers {
		if n.rWaking[id] > 0 {
			// The router ungates (and flushes static accounting) the
			// cycle its countdown hits zero.
			if n.rWaking[id] == 1 {
				return 0
			}
			if w := int64(n.rWaking[id]) - 1; w < bound {
				bound = w
			}
			continue
		}
		if !n.rGated[id] && n.cfg.Bypass && r.mode == ModeBypass {
			return 0 // gates itself this cycle (buffers are empty)
		}
		// Channel flits: delivery (or gated-router wake) happens at the
		// earliest readyAt; a flit already ready may be deliverable or
		// credit-blocked — either way this cycle is not provably idle.
		hasChTraffic := false
		for p := 0; p < NumPorts; p++ {
			ip := r.in[p]
			if ip == nil || ip.ch == nil {
				continue
			}
			e := ip.ch.earliestReady()
			if e < 0 {
				continue
			}
			hasChTraffic = true
			if e <= cy {
				return 0
			}
			if d := e - cy; d < bound {
				bound = d
			}
		}
		// CP-style idle gating: the idle streak counts up toward the
		// gating threshold; the gating transition must not be skipped.
		if n.cfg.PowerGating && !n.cfg.Bypass && !n.rGated[id] && !hasChTraffic {
			left := int64(n.cfg.IdleGateCycles) - int64(n.rIdle[id])
			if left <= 1 {
				return 0
			}
			if left-1 < bound {
				bound = left - 1
			}
		}
	}
	if d := n.untilBoundary(cy, int64(n.cfg.ThermalIntervalCycles)); d < bound {
		bound = d
	}
	if d := n.untilBoundary(cy, int64(n.cfg.TimeStepCycles)); d < bound {
		bound = d
	}
	return bound
}

// untilBoundary returns the distance from cy to the next multiple of
// interval strictly after cy.
func (n *Network) untilBoundary(cy, interval int64) int64 {
	return interval - cy%interval
}

// fastForward batch-applies k idle cycles' worth of per-cycle accounting
// and advances the clock, firing the thermal/control boundary exactly as
// the cycle-by-cycle loop would. idleSpan guarantees no other state can
// change during the span.
func (n *Network) fastForward(k int64) {
	for id, r := range n.routers {
		n.rStatic[id] += uint64(k)
		if n.rGated[id] {
			n.gatedCycles += uint64(k)
		}
		if n.rWaking[id] > 0 {
			n.rWaking[id] -= int32(k) // idleSpan bounds k <= waking-1
			continue
		}
		if n.rGated[id] {
			continue
		}
		if n.cfg.PowerGating && !n.cfg.Bypass {
			if n.hasChannelTraffic(r, n.cycle) {
				n.rIdle[id] = 0
			} else {
				n.rIdle[id] += int32(k) // idleSpan keeps this below the gate threshold
			}
		}
	}
	n.cycle += k
	if n.cycle%int64(n.cfg.ThermalIntervalCycles) == 0 {
		n.thermalStep()
	}
	if n.cycle%int64(n.cfg.TimeStepCycles) == 0 {
		n.controlStep()
	}
}

// powerStateStep advances wake counters and gating decisions. It touches
// only the router's own state (and its meter), so the sharded stepper runs
// it in parallel across shards; slot, when non-nil, buffers the emitted
// events for an in-order flush at the commit barrier (nil emits directly,
// the sequential path).
func (n *Network) powerStateStep(r *Router, cy int64, slot *shardSlot) {
	id := r.id
	if n.rWaking[id] > 0 {
		n.rWaking[id]--
		if n.rWaking[id] == 0 {
			n.rGated[id] = false
			n.flushStatic(r)
		}
		return
	}
	if n.rGated[id] {
		// CP-style gated routers (no bypass) wake when traffic shows
		// up at any input channel.
		if !n.cfg.Bypass {
			for p := 0; p < NumPorts; p++ {
				if r.in[p] != nil && r.in[p].ch != nil && r.in[p].ch.anyReady(cy) {
					n.triggerWake(r, slot)
					break
				}
			}
		}
		return
	}
	// Mode-0 routers gate as soon as their buffers drain.
	if n.cfg.Bypass && r.mode == ModeBypass && n.empty(id) {
		n.flushStatic(r)
		n.rGated[id] = true
		n.emitGate(slot, Event{Cycle: cy, Kind: EvGate, Router: id})
		return
	}
	// CP-style idle gating: a long-enough idle streak powers the
	// router down.
	if n.cfg.PowerGating && !n.cfg.Bypass {
		if n.empty(id) && !n.hasChannelTraffic(r, cy) && !n.nics[id].pending() {
			n.rIdle[id]++
			if int(n.rIdle[id]) >= n.cfg.IdleGateCycles {
				n.flushStatic(r)
				n.rGated[id] = true
				n.rIdle[id] = 0
				n.emitGate(slot, Event{Cycle: cy, Kind: EvGate, Router: id})
			}
		} else {
			n.rIdle[id] = 0
		}
	}
}

func (n *Network) hasChannelTraffic(r *Router, cy int64) bool {
	for p := 0; p < NumPorts; p++ {
		if r.in[p] != nil && r.in[p].ch != nil && r.in[p].ch.len() > 0 {
			return true
		}
	}
	return false
}

// triggerWake starts a gated router's wake-up countdown. slot is non-nil
// only when called from the sharded stepper's parallel power-state phase.
func (n *Network) triggerWake(r *Router, slot *shardSlot) {
	id := r.id
	if n.rWaking[id] > 0 || !n.rGated[id] {
		return
	}
	n.flushStatic(r)
	n.rWaking[id] = int32(n.cfg.WakeupCycles)
	if n.rWaking[id] <= 0 {
		n.rWaking[id] = 1
	}
	n.emitGate(slot, Event{Cycle: n.cycle, Kind: EvWake, Router: id})
	n.meters[id].Record(power.EventCounts{Wakeups: 1})
}

// flushStatic banks the cycles spent in the router's previous static state
// before a state change.
func (n *Network) flushStatic(r *Router) {
	id := r.id
	if n.rStatic[id] > 0 {
		n.meters[id].TickStatic(n.rStatic[id], r.lastScheme, r.lastGated)
		n.rStatic[id] = 0
	}
	r.lastScheme = n.schemeOf(r)
	r.lastGated = n.rGated[id]
}

// deliverChannels moves at most one flit per input port from the channel
// into its VC buffer. It mutates only the router's own channels and
// buffers, so the sharded stepper runs it in parallel across shards; the
// cross-router side effects (bufferedFlits, lastProgress, the delivery
// events) go through slot when non-nil and are committed at the barrier.
func (n *Network) deliverChannels(r *Router, cy int64, slot *shardSlot) {
	for p := 0; p < NumPorts; p++ {
		ip := r.in[p]
		if ip == nil || ip.ch == nil {
			continue
		}
		idx := ip.ch.peekReady(cy, n.cfg.DynamicChannelAlloc, ip.acceptBuf)
		if idx < 0 {
			continue
		}
		f := ip.ch.remove(idx)
		ip.vcs[f.VC].buf = append(ip.vcs[f.VC].buf, f)
		n.rBufCount[r.id]++
		n.portOcc[r.id*NumPorts+p]++
		ip.winFlitsIn++
		n.meters[r.id].Record(power.EventCounts{BufWrites: 1})
		if slot == nil {
			n.bufferedFlits++
			n.emitFlit(cy, EvDeliver, r.id, f)
			n.lastProgress = cy
		} else {
			slot.buffered++
			slot.progress = true
			if n.eventHook != nil {
				slot.deliverEvents = append(slot.deliverEvents,
					Event{Cycle: cy, Kind: EvDeliver, Router: r.id, PacketID: f.PacketID, FlitSeq: f.Seq})
			}
		}
	}
}

// saStage performs switch allocation and traversal: one flit per output
// port, one per input port, credits permitting.
// maxSASlots bounds the per-router (port, VC) slot space the switch
// allocator scans (Config.Validate caps VCs accordingly).
const maxSASlots = NumPorts * maxVCs

func (n *Network) saStage(r *Router, cy int64) {
	var cand [NumPorts][maxSASlots]int16
	var candN [NumPorts]int
	n.saBuild(r, &cand, &candN)
	n.saCommit(r, cy, &cand, &candN)
}

// saBuild is the read-only half of switch allocation: one pass over the
// input VCs builds per-output candidate lists, so arbitration only touches
// slots that actually hold a routed flit — the hot loop of the whole
// simulator. It reads nothing outside the router, which is what lets the
// sharded stepper run it in parallel across shards: the candidate set a
// router sees is the same whether its neighbours' commits have run or not
// (commits never touch another router's input VCs).
func (n *Network) saBuild(r *Router, cand *[NumPorts][maxSASlots]int16, candN *[NumPorts]int) {
	*candN = [NumPorts]int{}
	for inP := 0; inP < NumPorts; inP++ {
		ip := r.in[inP]
		if ip == nil {
			continue
		}
		for vc := range ip.vcs {
			ivc := &ip.vcs[vc]
			if len(ivc.buf) == 0 || ivc.route < 0 || ivc.outVC < 0 {
				continue
			}
			o := ivc.route
			cand[o][candN[o]] = int16(inP*n.cfg.VCs + vc)
			candN[o]++
		}
	}
}

// saCommit is the mutating half of switch allocation: arbitration, buffer
// pops, credit returns, link traversal, ejection. Credits returned here
// are visible to higher-numbered routers within the same cycle, so the
// sharded stepper runs all commits sequentially in router-index order —
// exactly the sequential schedule — after the parallel build phase.
func (n *Network) saCommit(r *Router, cy int64, cand *[NumPorts][maxSASlots]int16, candN *[NumPorts]int) {
	var inputUsed [NumPorts]bool
	for outP := 0; outP < NumPorts; outP++ {
		if candN[outP] == 0 {
			continue
		}
		n.arbitrateOutput(r, r.out[outP], outP, cy, &inputUsed, cand[outP][:candN[outP]])
	}
}

func (n *Network) arbitrateOutput(r *Router, op *outputPort, outP int, cy int64, inputUsed *[NumPorts]bool, cands []int16) {
	total := NumPorts * n.cfg.VCs
	// Round-robin: examine candidates in circular slot order starting at
	// the RR pointer, granting the first eligible one.
	for len(cands) > 0 {
		bestIdx, bestDist := 0, total+1
		for i, c := range cands {
			if d := (int(c) - op.saRR + total) % total; d < bestDist {
				bestIdx, bestDist = i, d
			}
		}
		slot := int(cands[bestIdx])
		cands[bestIdx] = cands[len(cands)-1]
		cands = cands[:len(cands)-1]

		inP, vc := slot/n.cfg.VCs, slot%n.cfg.VCs
		if inputUsed[inP] {
			continue
		}
		ivc := &r.in[inP].vcs[vc]
		if len(ivc.buf) == 0 {
			continue
		}
		f := ivc.buf[0]
		if f.Type.IsHead() && ivc.vaAt >= cy {
			continue // VA completed this very cycle; SA is next cycle
		}
		// Credit-based flow control: the flit needs a reserved slot in
		// the downstream VC's combined channel+buffer storage. Ejection
		// sinks (ports with no outgoing channel) are uncredited.
		if op.ch != nil && op.credits[ivc.outVC] <= 0 {
			continue
		}
		// Grant: pop the flit and traverse. Shifting down (rather than
		// re-slicing forward) keeps the buffer's capacity anchored so
		// the append on delivery never reallocates in steady state.
		last := len(ivc.buf) - 1
		copy(ivc.buf, ivc.buf[1:])
		ivc.buf[last] = nil
		ivc.buf = ivc.buf[:last]
		n.rBufCount[r.id]--
		n.portOcc[r.id*NumPorts+inP]--
		n.bufferedFlits--
		inputUsed[inP] = true
		op.saRR = (slot + 1) % total
		if f.Type.IsHead() {
			if pi := n.packets.get(f.PacketID); pi != nil {
				pi.path = append(pi.path, uint16(r.id))
			}
		}
		n.meters[r.id].Record(power.EventCounts{BufReads: 1, XbarTraverses: 1})
		// The freed channel+buffer slot's credit returns upstream.
		if up := r.in[inP].upRouter; up >= 0 {
			n.routers[up].out[r.in[inP].upPort].credits[vc]++
		}
		outVC := ivc.outVC
		if f.Type.IsTail() {
			op.vcBusy[outVC] = false
			ivc.reset()
		}
		if op.ch == nil {
			n.eject(r, f, cy)
		} else {
			f.VC = outVC
			op.credits[outVC]--
			op.winVCFlits[outVC]++
			n.emitFlit(cy, EvTraverse, r.id, f)
			n.sendOnLink(r, op, f, cy, false)
		}
		n.lastProgress = cy
		return
	}
}

// vaStage allocates output VCs to routed head flits.
func (n *Network) vaStage(r *Router, cy int64) {
	for p := 0; p < NumPorts; p++ {
		ip := r.in[p]
		if ip == nil {
			continue
		}
		for v := range ip.vcs {
			ivc := &ip.vcs[v]
			if len(ivc.buf) == 0 || ivc.route < 0 || ivc.outVC >= 0 {
				continue
			}
			if !ivc.buf[0].Type.IsHead() {
				continue
			}
			if ivc.routedAt >= cy {
				continue // RC finished this cycle; VA is next cycle
			}
			op := r.out[ivc.route]
			if free := op.freeVCIn(ivc.vcClass, n.vcClasses); free >= 0 {
				op.vcBusy[free] = true
				ivc.outVC = free
				ivc.vaAt = cy
			}
		}
	}
}

// rcStage routes head flits that just reached the head of their VC. slot
// is non-nil only on the sharded stepper's parallel VA+RC phase, where
// the control-fault count must accumulate per shard and the PRNG draw
// comes from the coordinator's pre-banked rcDraws instead of the stream.
func (n *Network) rcStage(r *Router, cy int64, slot *shardSlot) {
	for p := 0; p < NumPorts; p++ {
		ip := r.in[p]
		if ip == nil {
			continue
		}
		for v := range ip.vcs {
			ivc := &ip.vcs[v]
			if len(ivc.buf) == 0 || ivc.route >= 0 {
				continue
			}
			f := ivc.buf[0]
			if !f.Type.IsHead() {
				continue
			}
			ivc.route, ivc.vcClass = n.route(r, f)
			ivc.routedAt = cy
			if n.cfg.ControlFaultRate > 0 {
				var draw float64
				if n.rcPredrawn {
					draw = n.rcDraws[(r.id*NumPorts+p)*n.cfg.VCs+v]
				} else {
					draw = n.rng.Float64()
				}
				if draw < n.cfg.ControlFaultRate {
					// Parity caught a routing-table upset: recompute
					// after the penalty (route itself stays correct).
					penalty := int64(n.cfg.ControlFaultPenalty)
					if penalty <= 0 {
						penalty = 2
					}
					ivc.routedAt = cy + penalty
					if slot != nil {
						slot.controlFaults++
					} else {
						n.controlFaults++
					}
				}
			}
			if !n.cfg.HasVAStage {
				// EB-style routers fold VC selection into RC,
				// eliminating the VA stage.
				op := r.out[ivc.route]
				if free := op.freeVCIn(ivc.vcClass, n.vcClasses); free >= 0 {
					op.vcBusy[free] = true
					ivc.outVC = free
					ivc.vaAt = cy
				} else {
					// Retry allocation in later cycles.
					ivc.route = -1
				}
			}
		}
	}
}

// predrawControlFaults banks one control-fault PRNG draw for every VC
// that rcStage will route this tick, in exact (router, port, VC) order,
// so the sharded stepper can fan VA+RC out without reordering the
// stream. Called by the coordinator after the commit pass, at the same
// schedule point the parallel phase starts from; the qualifying set is
// identical to what rcStage sees because (a) commits only mutate their
// own router's input VCs, so post-commit state is final, and (b) vaStage
// never changes a VC's buffered flits or clears its route, so running VA
// first (as the phase does per router) cannot change who qualifies.
func (n *Network) predrawControlFaults() {
	stride := NumPorts * n.cfg.VCs
	if n.rcDraws == nil {
		n.rcDraws = make([]float64, len(n.routers)*stride)
	}
	for id, r := range n.routers {
		if !n.active(id) || n.rBufCount[id] == 0 {
			continue
		}
		for p := 0; p < NumPorts; p++ {
			ip := r.in[p]
			if ip == nil {
				continue
			}
			for v := range ip.vcs {
				ivc := &ip.vcs[v]
				if len(ivc.buf) == 0 || ivc.route >= 0 {
					continue
				}
				if !ivc.buf[0].Type.IsHead() {
					continue
				}
				n.rcDraws[id*stride+p*n.cfg.VCs+v] = n.rng.Float64()
			}
		}
	}
	n.rcPredrawn = true
}

// bypassStep forwards flits through a gated router's stress-relaxing
// bypass switch: one flit per cycle, channel-to-channel, with routing
// state held in the always-on BST (the inputVC rows).
func (n *Network) bypassStep(r *Router, cy int64) {
	for k := 0; k < NumPorts; k++ {
		p := (r.bypassRR + k) % NumPorts
		if n.tryBypassPort(r, p, cy) {
			r.bypassRR = (p + 1) % NumPorts
			n.lastProgress = cy
			return
		}
	}
}

// bypassCanForward reports (without side effects) whether the bypass
// switch could forward flit f right now.
func (n *Network) bypassCanForward(r *Router, p int, f *Flit) bool {
	if f.Type.IsHead() {
		route, class := n.route(r, f)
		op := r.out[route]
		if op.ch == nil {
			// Ejection needs a free output VC but no credits.
			return op.freeVCIn(class, n.vcClasses) >= 0
		}
		return op.freeVCWithCreditIn(class, n.vcClasses) >= 0
	}
	ivc := &r.in[p].vcs[f.VC]
	if ivc.route < 0 {
		return false // no BST row: wait for state (should not happen)
	}
	return r.out[ivc.route].ch == nil || r.out[ivc.route].credits[ivc.outVC] > 0
}

// tryBypassPort attempts to forward one flit arriving at input port p.
// Channel selection uses the unified BST's dynamic allocation (Section
// 3.1.2): a head flit blocked on output VC availability must not trap the
// tail of the packet holding that VC behind it in the same channel FIFO.
func (n *Network) tryBypassPort(r *Router, p int, cy int64) bool {
	var f *Flit
	fromNIC := false
	var chIdx int
	// The local port is NIC injection only when no topology link claimed
	// it (chiplet interposers spend theirs on the vertical entry-node
	// channel, which forwards like any other port).
	if p == PortLocal && r.in[p].ch == nil {
		var ok bool
		f, ok = n.peekNICFlit(r, n.nics[r.id], cy)
		if !ok || !n.bypassCanForward(r, p, f) {
			return false
		}
		fromNIC = true
	} else {
		ip := r.in[p]
		if ip == nil || ip.ch == nil {
			return false
		}
		chIdx = ip.ch.peekReady(cy, true, ip.acceptBypass)
		if chIdx < 0 {
			return false
		}
		f = ip.ch.at(chIdx).flit
	}

	ivc := &r.in[p].vcs[f.VC]
	if f.Type.IsHead() {
		route, class := n.route(r, f)
		op := r.out[route]
		var free int
		if op.ch == nil {
			free = op.freeVCIn(class, n.vcClasses)
		} else {
			free = op.freeVCWithCreditIn(class, n.vcClasses)
		}
		op.vcBusy[free] = true
		ivc.outVC = free
		ivc.route = route
		ivc.vcClass = class
		ivc.routedAt, ivc.vaAt = cy, cy
	}
	route, outVC := ivc.route, ivc.outVC
	if f.Type.IsHead() {
		if pi := n.packets.get(f.PacketID); pi != nil {
			pi.path = append(pi.path, uint16(r.id))
		}
	}

	// Commit: consume the flit from its source.
	if fromNIC {
		n.consumeNICFlit(r, n.nics[r.id])
	} else {
		// The flit leaves this router's channel: return the storage
		// credit to the upstream sender.
		r.in[p].ch.remove(chIdx)
		r.in[p].winFlitsIn++
		if up := r.in[p].upRouter; up >= 0 {
			n.routers[up].out[r.in[p].upPort].credits[f.VC]++
		}
	}
	if f.Type.IsTail() {
		r.out[route].vcBusy[outVC] = false
		ivc.reset()
	}
	if r.out[route].ch == nil {
		n.eject(r, f, cy)
		return true
	}
	f.VC = outVC
	r.out[route].credits[outVC]--
	r.out[route].winVCFlits[outVC]++
	n.emitFlit(cy, EvBypass, r.id, f)
	n.sendOnLink(r, r.out[route], f, cy, true)
	return true
}

// sendOnLink pushes a flit into an output channel, applying link latency,
// per-hop ECC latency, fault injection, and hop-level retransmission.
func (n *Network) sendOnLink(r *Router, op *outputPort, f *Flit, cy int64, viaBypass bool) {
	scheme := n.schemeOf(r)
	relaxed := n.relaxedLinks(r)
	capab := ecc.CapabilityOf(scheme)

	latency := int64(2) // ST + link traversal
	if viaBypass {
		latency = 2 // switch + link: the bypass's entire "pipeline"
	}
	if relaxed {
		latency++ // doubled link traversal time (mode 4)
	}
	switch scheme {
	case ecc.SchemeSECDED:
		latency++ // per-hop decode
	case ecc.SchemeDECTED:
		latency += 2
	}

	ev := power.EventCounts{LinkHops: 1, ChanStages: uint64(n.cfg.ChannelStages)}
	switch scheme {
	case ecc.SchemeSECDED:
		ev.SECDEDEncodes, ev.SECDEDDecodes = 1, 1
	case ecc.SchemeDECTED:
		ev.DECTEDEncodes, ev.DECTEDDecodes = 1, 1
	}

	readyAt := cy + latency
	// Fault injection and resolution. Hop-level retransmission re-sends
	// from the MFAC (or router) retransmission buffer until the flit
	// gets through or the errors slip past detection.
	for attempt := 0; attempt < 8; attempt++ {
		errBits := n.sampleLinkErrors(r, relaxed)
		class := errBits
		if class > 3 {
			class = 3
		}
		r.winErrHist[class]++
		n.errHist[class]++
		outcome := n.resolveErrors(f, scheme, capab, errBits)
		if outcome != ecc.OutcomeDetected {
			break
		}
		// NACK + retransmission: extra round trip and another link
		// traversal's worth of energy.
		readyAt += 3
		n.hopRetransmits++
		r.winHopRetrans++
		n.emitFlit(cy, EvHopRetransmit, r.id, f)
		ev.LinkHops++
		ev.ChanStages += uint64(n.cfg.ChannelStages)
		switch scheme {
		case ecc.SchemeSECDED:
			ev.SECDEDEncodes++
			ev.SECDEDDecodes++
		case ecc.SchemeDECTED:
			ev.DECTEDEncodes++
			ev.DECTEDDecodes++
		}
	}
	n.meters[r.id].Record(ev)
	n.thermAct[r.id]++
	op.winFlitsOut++
	// Under sharded stepping the push is staged per destination shard and
	// drained by the channel's owning shard in the accounting phase; the
	// deferral is invisible within the tick (readyAt >= cy+2, and nothing
	// between the commit pass and the drain reads channels). Sequential
	// stepping pushes directly.
	if sp := n.pool; sp != nil && n.shardCount > 0 {
		slot := sp.slots[sp.shardOf[op.downRouter]]
		slot.stagedLinks = append(slot.stagedLinks, stagedPush{ch: op.ch, flit: f, readyAt: readyAt})
	} else {
		op.ch.push(f, readyAt)
	}
}

// sampleLinkErrors draws the error-bit count for one link traversal. The
// per-bit rate comes from the per-router cache refreshed at thermal-step
// boundaries (temperatures cannot change in between), so the hot path is
// one table lookup instead of two exponentials per attempt.
func (n *Network) sampleLinkErrors(r *Router, relaxed bool) int {
	re := n.linkRe[r.id]
	if relaxed {
		re = n.linkReRelaxed[r.id]
	}
	return n.injector.SampleAtRate(n.cfg.FlitBits, re)
}

// refreshLinkRates recomputes the cached per-router link error rates from
// the current temperatures (or the forced injection rate). Called at
// construction and after every thermal step — the only points where the
// inputs to the transient-fault model change.
func (n *Network) refreshLinkRates() {
	if n.cfg.ForcedErrorRate > 0 {
		re := n.cfg.ForcedErrorRate
		relaxed := re * n.injector.Model.RelaxFactor
		for i := range n.linkRe {
			n.linkRe[i], n.linkReRelaxed[i] = re, relaxed
		}
		return
	}
	for i := range n.linkRe {
		n.linkRe[i], n.linkReRelaxed[i] = n.injector.Model.BitErrorRates(n.grid.Temp(i), 1.0)
	}
}

// resolveErrors applies the active scheme to an injected error count,
// using the bit-exact codecs when VerifyPayloads is on and the capability
// fast path otherwise.
func (n *Network) resolveErrors(f *Flit, scheme ecc.Scheme, capab ecc.Capability, errBits int) ecc.Outcome {
	if errBits == 0 {
		return ecc.OutcomeClean
	}
	if capab.EndToEnd || scheme == ecc.SchemeNone {
		// No per-hop hardware: the damage rides along until the
		// destination CRC catches it.
		f.Corrupt = true
		return ecc.OutcomeSilent
	}
	outcome := capab.Resolve(errBits)
	if n.cfg.VerifyPayloads && f.Payload != nil {
		n.verifyWithCodec(f, scheme, capab, errBits, outcome)
	}
	if outcome == ecc.OutcomeSilent {
		f.Corrupt = true
	}
	return outcome
}

// verifyWithCodec runs the real encode→corrupt→decode path on the flit's
// payload as a cross-check of the capability fast path: the upset burst
// lands as errBits distinct bits of one of the two 64-bit ECC words
// protecting the flit's 128 payload bits. The capability table stays
// authoritative for the hop outcome (so VerifyPayloads cannot change a
// seeded run's results); any in-envelope disagreement between the codec
// and the table is counted in codecDisagree instead of silently steering
// the simulation. On a Silent outcome the payload is left carrying the
// mis-decoded bytes so the end-to-end CRC has real damage to catch.
func (n *Network) verifyWithCodec(f *Flit, scheme ecc.Scheme, capab ecc.Capability, errBits int, outcome ecc.Outcome) {
	code := n.secded
	if scheme == ecc.SchemeDECTED {
		code = n.dected
	}
	w := n.payloadRng.Intn(2)
	word := ecc.FromBytes(f.Payload[w*8 : w*8+8])
	encoded := code.Encode(word)
	// Flip errBits distinct codeword bits (a repeated position would
	// cancel itself and silently weaken the injected burst).
	flipped := make(map[int]bool, errBits)
	for len(flipped) < errBits && len(flipped) < encoded.Len() {
		b := n.payloadRng.Intn(encoded.Len())
		if flipped[b] {
			continue
		}
		flipped[b] = true
		encoded.FlipBit(b)
	}
	data, res := code.Decode(encoded)
	// Inside the code's guaranteed envelope the decoder must reproduce
	// the table's verdict exactly; beyond it (errBits > Detect) any
	// decoder behaviour is legal and only the table's Silent stands.
	if errBits <= capab.Detect {
		want := ecc.ResultCorrected
		if errBits > capab.Correct {
			want = ecc.ResultDetected
		}
		if res != want || (res == ecc.ResultCorrected && !data.Equal(word)) {
			n.codecDisagree++
		}
		return
	}
	// Silent: carry forward whatever the decoder produced; if it happens
	// to reconstruct the original word, force one payload bit wrong so
	// the corruption the table promised is physically present.
	copy(f.Payload[w*8:], data.Bytes())
	if data.Equal(word) {
		f.Payload[w*8] ^= 1 << uint(n.payloadRng.Intn(8))
	}
}

// CodecDisagreements returns how many protected hops saw the bit-exact
// codec disagree with the capability table inside the scheme's guaranteed
// correct/detect envelope. It must be zero on any run; internal/diffcheck
// asserts this as part of the VerifyPayloads pair check.
func (n *Network) CodecDisagreements() uint64 { return n.codecDisagree }

// eject delivers a flit to the destination NIC. The flit itself returns
// to the free-list here — ejection is the only place flits die.
func (n *Network) eject(r *Router, f *Flit, cy int64) {
	n.flitsDelivered++
	n.emitFlit(cy, EvEject, r.id, f)
	n.meters[r.id].Record(power.EventCounts{CRCChecks: 1})
	pi := n.packets.get(f.PacketID)
	pid, corrupt, seq := f.PacketID, f.Corrupt, f.Seq
	n.recycleFlit(f)
	if pi == nil {
		return
	}
	if corrupt {
		pi.corrupt = true
	}
	if seq != pi.flitsArrived {
		// Wormhole routing must deliver a packet's flits in order;
		// any inversion is a flow-control bug.
		n.orderViolations++
	}
	pi.flitsArrived++
	if pi.flitsArrived < pi.job.flits {
		return
	}
	// Whole packet arrived: end-to-end CRC verdict.
	if pi.corrupt && pi.job.retries < n.cfg.MaxPacketRetries {
		// Destination NACKs to the source, which retransmits the
		// packet (paper Section 2's CRC re-transmission scheme).
		pi.job.retries++
		// The NACK must travel back to the source before the packet
		// can be retransmitted: charge one path traversal's worth of
		// delay. The elapsed latency is the local estimate, capped at
		// a topology-diameter bound so repeated retries cannot compound
		// (8*(diameter+2); on a mesh that is the legacy 8*(W+H)).
		nack := cy - pi.job.injectCycle
		if nack > n.nackBound {
			nack = n.nackBound
		}
		pi.job.notBefore = cy + nack
		n.emit(Event{Cycle: cy, Kind: EvE2ERetransmit, Router: r.id, PacketID: pi.job.id})
		n.e2eRetransmits += uint64(pi.job.flits)
		// The packet id stays live in the table; reset the delivery
		// progress for the retransmitted copy.
		pi.flitsArrived = 0
		pi.corrupt = false
		pi.path = pi.path[:0]
		// Retries go to the queue front and bypass the dependency
		// window: the transaction is already outstanding and blocking
		// it on itself would wedge a closed loop.
		q := n.nics[pi.job.src]
		q.queue = append(q.queue, nil)
		copy(q.queue[1:], q.queue)
		q.queue[0] = pi.job
		return
	}
	n.packets.delete(pid)
	if pi.corrupt {
		n.pktsFailed++
	} else {
		n.pktsDelivered++
	}
	if n.cfg.DependencyWindow > 0 {
		n.nics[pi.job.src].outstanding--
	}
	lat := float64(cy - pi.job.injectCycle + 1)
	n.latency.Add(lat)
	// Reward attribution (paper Section 5): every router that forwarded
	// this packet observes its end-to-end latency, so a router whose
	// weak error protection corrupted it feels the retransmission cost.
	if len(pi.path) == 0 {
		r.winEjectLatency.Add(lat)
	}
	for _, rid := range pi.path {
		n.routers[rid].winEjectLatency.Add(lat)
	}
	n.outstanding--
	n.recycleJob(pi.job)
	n.recycleInfo(pi)
}

// peekNICFlit exposes (without consuming) the next flit the NIC wants to
// inject, materializing it lazily.
func (n *Network) peekNICFlit(r *Router, q *nic, cy int64) (*Flit, bool) {
	if q.cur == nil {
		if len(q.queue) == 0 {
			return nil, false
		}
		if q.queue[0].notBefore > cy {
			return nil, false // e2e NACK still in flight
		}
		// Dependency-window gating: at most W packets outstanding per
		// core, with trace gaps preserved as compute time between
		// injection starts (Netrace-style closed loop).
		if w := n.cfg.DependencyWindow; w > 0 && q.queue[0].retries == 0 {
			job := q.queue[0]
			if q.outstanding >= w || cy < q.lastInject+job.gap {
				return nil, false
			}
			// Latency is measured from the moment the core is ready
			// to send, not from the open-loop trace time.
			job.injectCycle = cy
			q.outstanding++
			q.lastInject = cy
		}
		q.cur = q.queue[0]
		// Pop by shifting down so the queue's capacity stays anchored:
		// a re-slicing pop would strand the front and make every later
		// append reallocate. NIC queues are a handful of entries deep.
		last := len(q.queue) - 1
		copy(q.queue, q.queue[1:])
		q.queue[last] = nil
		q.queue = q.queue[:last]
		q.nextIdx = 0
		q.curVC = -1
	}
	if q.curVC < 0 {
		// Pick a VC for this packet round-robin; the bypass path
		// doesn't buffer locally, so any VC whose BST row is free
		// works. The active path additionally needs buffer space,
		// checked by the caller.
		ip := r.in[PortLocal]
		for i := 0; i < n.cfg.VCs; i++ {
			v := (q.vcRR + i) % n.cfg.VCs
			if len(ip.vcs[v].buf) == 0 && ip.vcs[v].route < 0 {
				q.curVC = v
				q.vcRR = (v + 1) % n.cfg.VCs
				break
			}
		}
		if q.curVC < 0 {
			return nil, false
		}
	}
	f := n.makeFlit(q.cur, q.nextIdx, q.curVC)
	return f, true
}

// consumeNICFlit commits the flit returned by peekNICFlit.
func (n *Network) consumeNICFlit(r *Router, q *nic) {
	n.meters[r.id].Record(power.EventCounts{CRCChecks: 1}) // injection-port CRC encode
	q.nextIdx++
	if q.nextIdx >= q.cur.flits {
		q.cur = nil
		q.curVC = -1
	}
}

// makeFlit materializes flit #idx of a packet.
func (n *Network) makeFlit(job *packetJob, idx, vc int) *Flit {
	var t FlitType
	switch {
	case job.flits == 1:
		t = FlitSingle
	case idx == 0:
		t = FlitHead
	case idx == job.flits-1:
		t = FlitTail
	default:
		t = FlitBody
	}
	var f *Flit
	var payload []byte
	if k := len(n.flitPool); k > 0 {
		f = n.flitPool[k-1]
		n.flitPool[k-1] = nil
		n.flitPool = n.flitPool[:k-1]
		payload = f.Payload // reuse the backing array across lives
	} else {
		f = &Flit{}
	}
	*f = Flit{
		ID: n.nextFlitID, PacketID: job.id, Type: t,
		Src: job.src, Dst: job.dst, VC: vc, Seq: idx,
	}
	n.nextFlitID++
	if n.cfg.VerifyPayloads {
		if cap(payload) >= 16 {
			f.Payload = payload[:16]
		} else {
			f.Payload = make([]byte, 16)
		}
		n.payloadRng.Read(f.Payload)
	}
	return f
}

// recycleFlit returns an ejected flit to the free-list. Callers must not
// touch the flit afterwards.
func (n *Network) recycleFlit(f *Flit) {
	n.flitPool = append(n.flitPool, f)
}

// newJob and newInfo pop pooled packet bookkeeping records; recycleJob
// and recycleInfo return them when a packet completes. packetInfo keeps
// its path slice capacity across lives, so steady-state traffic records
// forwarding paths without allocating.
func (n *Network) newJob() *packetJob {
	if k := len(n.jobPool); k > 0 {
		j := n.jobPool[k-1]
		n.jobPool[k-1] = nil
		n.jobPool = n.jobPool[:k-1]
		return j
	}
	return &packetJob{}
}

func (n *Network) recycleJob(j *packetJob) {
	*j = packetJob{}
	n.jobPool = append(n.jobPool, j)
}

func (n *Network) newInfo(job *packetJob) *packetInfo {
	if k := len(n.infoPool); k > 0 {
		pi := n.infoPool[k-1]
		n.infoPool[k-1] = nil
		n.infoPool = n.infoPool[:k-1]
		pi.job = job
		return pi
	}
	return &packetInfo{job: job}
}

func (n *Network) recycleInfo(pi *packetInfo) {
	pi.job = nil
	pi.flitsArrived = 0
	pi.corrupt = false
	pi.path = pi.path[:0]
	n.infoPool = append(n.infoPool, pi)
}

// injectStep streams the NIC's current packet into the local input port,
// one flit per cycle.
func (n *Network) injectStep(r *Router, q *nic, cy int64) {
	f, ok := n.peekNICFlit(r, q, cy)
	if !ok {
		return
	}
	ivc := &r.in[PortLocal].vcs[f.VC]
	if len(ivc.buf) >= n.cfg.BufDepth {
		return
	}
	n.consumeNICFlit(r, q)
	ivc.buf = append(ivc.buf, f)
	n.rBufCount[r.id]++
	n.portOcc[r.id*NumPorts+PortLocal]++
	n.bufferedFlits++
	r.in[PortLocal].winFlitsIn++
	n.meters[r.id].Record(power.EventCounts{BufWrites: 1})
	n.emitFlit(cy, EvInject, r.id, f)
	n.lastProgress = cy
}

// thermalStep integrates the thermal grid and the aging model over the
// elapsed interval.
func (n *Network) thermalStep() {
	dt := float64(n.cfg.ThermalIntervalCycles) / power.ClockHz
	powers := n.powersBuf
	for i, m := range n.meters {
		n.flushStatic(n.routers[i])
		powers[i] = (m.TotalJoules() - n.lastTJ[i]) / dt
		n.lastTJ[i] = m.TotalJoules()
	}
	n.grid.Step(powers, dt)
	for i := range n.routers {
		temp := n.grid.Temp(i)
		activity := float64(n.thermAct[i]) / float64(n.cfg.ThermalIntervalCycles) / NumPorts
		if activity > 1 {
			activity = 1
		}
		n.wear[i].Accrue(n.aging, dt, temp, activity, !n.rGated[i])
		n.thermAct[i] = 0
		n.tempSum += temp
		n.tempSamples++
	}
	// Temperatures moved: refresh the cached per-router bit-error rates.
	n.refreshLinkRates()
}

// controlStep closes one RL time step: builds each router's observation,
// asks the controller for the next mode, and resets the window counters.
func (n *Network) controlStep() {
	win := uint64(n.cfg.TimeStepCycles)
	winSeconds := float64(win) / power.ClockHz
	for i, r := range n.routers {
		n.flushStatic(r)
		obs := Observation{Router: i, Cycle: n.cycle}
		for p := 0; p < NumPorts; p++ {
			if ip := r.in[p]; ip != nil {
				obs.Features[p] = float64(ip.winFlitsIn) / float64(win)
				capacity := float64(n.cfg.VCs * n.cfg.BufDepth)
				obs.Features[5+p] = float64(n.winOcc[i*NumPorts+p]) / float64(win) / capacity
			}
			if op := r.out[p]; op != nil {
				obs.Features[10+p] = float64(op.winFlitsOut) / float64(win)
			}
		}
		obs.Features[15] = n.grid.Temp(i)
		if r.winEjectLatency.Count > 0 {
			r.lastAvgLatency = r.winEjectLatency.Mean()
		}
		if r.lastAvgLatency < 1 {
			r.lastAvgLatency = 1
		}
		obs.AvgLatencyCycles = r.lastAvgLatency
		obs.PowerMilliwatts = (n.meters[i].TotalJoules() - r.winEnergyStart) / winSeconds * 1e3
		obs.AgingFactor = n.aging.AgingFactor(n.wear[i])
		obs.ErrorHistogram = r.winErrHist
		obs.WinHopRetransmits = r.winHopRetrans

		n.modeBreakdown.AddCycles(int(r.mode), win)
		windowMode := r.mode
		mode := n.ctrl.NextMode(obs)
		if n.cfg.RLTable {
			n.meters[i].Record(power.EventCounts{RLSteps: 1})
		}
		n.applyMode(r, mode)
		if n.bufCtrl != nil {
			if act := n.bufCtrl.NextBufferAction(obs); act >= 0 {
				n.applyBufferAction(r, act)
				if n.cfg.RLTable {
					// The buffer agent is a second Q-table lookup+update
					// per window (RACE runs its own table).
					n.meters[i].Record(power.EventCounts{RLSteps: 1})
				}
			}
		}
		if n.epochHook != nil {
			_, _, dVth := n.aging.DeltaVth(n.wear[i])
			n.epochHook(EpochSample{
				Cycle:            n.cycle,
				Router:           i,
				WindowMode:       windowMode,
				NextMode:         mode,
				Gated:            n.rGated[i],
				TempC:            obs.Features[15],
				DeltaVth:         dVth,
				AgingFactor:      obs.AgingFactor,
				AvgLatencyCycles: obs.AvgLatencyCycles,
				PowerMilliwatts:  obs.PowerMilliwatts,
				ErrHist:          r.winErrHist,
				HopRetransmits:   r.winHopRetrans,
			})
		}

		// Reset the window.
		r.winEjectLatency = stats.Summary{}
		r.winErrHist = [4]uint64{}
		r.winHopRetrans = 0
		r.winEnergyStart = n.meters[i].TotalJoules()
		for p := 0; p < NumPorts; p++ {
			n.winOcc[i*NumPorts+p] = 0
			if r.in[p] != nil {
				r.in[p].winFlitsIn = 0
			}
			if op := r.out[p]; op != nil {
				op.winFlitsOut = 0
				for v := range op.winVCFlits {
					op.winVCFlits[v] = 0
				}
			}
		}
	}
}

// applyBufferAction repartitions every credited output port of r per the
// chosen BufAction*: each VC's capacity becomes BufDepth (its private
// router-buffer floor, never reassigned) plus its allotted share of the
// ChannelStages, and outstanding credits shift by the capacity delta.
// Credits may go transiently negative when a VC's share shrinks below its
// in-flight storage — every consumption check is `credits > 0`, so that
// only pauses the VC until enough flits drain. Runs on the coordinator at
// the time-step boundary (controlStep), so it is shard-safe.
func (n *Network) applyBufferAction(r *Router, act int) {
	vcs := n.cfg.VCs
	stages := n.cfg.ChannelStages
	for p := 0; p < NumPorts; p++ {
		op := r.out[p]
		if op == nil || op.ch == nil {
			continue // ejection sinks are uncredited
		}
		var alloc [maxVCs]int
		switch act {
		case BufActionDemand:
			apportionByDemand(alloc[:vcs], op.winVCFlits, stages)
		case BufActionConcentrate:
			best := 0
			for v := 1; v < vcs; v++ {
				if op.winVCFlits[v] > op.winVCFlits[best] {
					best = v
				}
			}
			alloc[best] = stages
		case BufActionReserve:
			active := 0
			for v := 0; v < vcs; v++ {
				if op.winVCFlits[v] > 0 {
					active++
				}
			}
			if active == 0 {
				evenSplit(alloc[:vcs], stages)
			} else {
				i := 0
				for v := 0; v < vcs; v++ {
					if op.winVCFlits[v] > 0 {
						alloc[v] = stages / active
						if i < stages%active {
							alloc[v]++
						}
						i++
					}
				}
			}
		default: // BufActionEven and anything unrecognized
			evenSplit(alloc[:vcs], stages)
		}
		for v := 0; v < vcs; v++ {
			newShare := n.cfg.BufDepth + alloc[v]
			op.credits[v] += newShare - op.share[v]
			op.share[v] = newShare
		}
	}
}

// evenSplit is the static vcCredits stage distribution: stages/vcs each,
// remainder one apiece to the lowest-numbered VCs.
func evenSplit(alloc []int, stages int) {
	vcs := len(alloc)
	for v := range alloc {
		alloc[v] = stages / vcs
		if v < stages%vcs {
			alloc[v]++
		}
	}
}

// apportionByDemand distributes stages proportionally to each VC's window
// flit count by the largest-remainder method, ties to lower VCs. Zero
// total demand falls back to the even split.
func apportionByDemand(alloc []int, demand []uint64, stages int) {
	var total uint64
	for _, d := range demand {
		total += d
	}
	if total == 0 {
		evenSplit(alloc, stages)
		return
	}
	assigned := 0
	var rem [maxVCs]uint64 // scaled remainders, comparable exactly in integers
	for v := range alloc {
		q := uint64(stages) * demand[v]
		alloc[v] = int(q / total)
		rem[v] = q % total
		assigned += alloc[v]
	}
	for assigned < stages {
		best := -1
		for v := range alloc {
			if best < 0 || rem[v] > rem[best] {
				best = v
			}
		}
		alloc[best]++
		rem[best] = 0
		assigned++
	}
}

// applyMode switches a router's operation mode, handling the power-state
// transitions in and out of mode 0.
func (n *Network) applyMode(r *Router, mode Mode) {
	if mode == ModeBypass && !n.cfg.Bypass {
		mode = ModeCRC // bypass hardware absent: degrade gracefully
	}
	prev := r.mode
	r.mode = mode
	if prev != mode {
		n.emit(Event{Cycle: n.cycle, Kind: EvModeChange, Router: r.id, Mode: mode})
	}
	if prev == ModeBypass && mode != ModeBypass && n.rGated[r.id] {
		n.triggerWake(r, nil)
	}
	n.flushStatic(r)
}

// CheckInvariants validates the network's conservation laws. On a fully
// drained network every credit must have returned, every output VC must
// be released, and every buffer, channel and NIC must be empty; at any
// time, no packet flit may have been delivered out of order. It returns
// nil when all invariants hold.
func (n *Network) CheckInvariants() error {
	if n.orderViolations > 0 {
		return fmt.Errorf("noc: %d out-of-order flit deliveries", n.orderViolations)
	}
	// The O(1) buffered-flit counters must mirror the buffers exactly at
	// all times — the pipeline-skip and fast-forward paths rely on them.
	total := 0
	for id, r := range n.routers {
		cnt := 0
		for p := 0; p < NumPorts; p++ {
			occ := 0
			if ip := r.in[p]; ip != nil {
				occ = ip.occupancy()
			}
			if int(n.portOcc[id*NumPorts+p]) != occ {
				return fmt.Errorf("noc: router %d %s portOcc = %d, buffers hold %d",
					id, PortName(p), n.portOcc[id*NumPorts+p], occ)
			}
			cnt += occ
		}
		if cnt != int(n.rBufCount[id]) {
			return fmt.Errorf("noc: router %d bufCount = %d, buffers hold %d", id, n.rBufCount[id], cnt)
		}
		total += cnt
	}
	if total != n.bufferedFlits {
		return fmt.Errorf("noc: bufferedFlits = %d, buffers hold %d", n.bufferedFlits, total)
	}
	if !n.Drained() {
		return nil // the remaining checks only hold at quiescence
	}
	// At quiescence every credited output port must hold exactly its
	// current per-VC capacity (op.share — the static vcCredits split
	// unless a buffer agent repartitioned it), and the port total must
	// conserve the full VCs*BufDepth + ChannelStages storage (remainder
	// stages included — the ChannelStages%VCs != 0 case used to leak them
	// silently; buffer actions move stages between VCs but never create
	// or destroy them).
	wantPortCredits := n.cfg.VCs*n.cfg.BufDepth + n.cfg.ChannelStages
	for id, r := range n.routers {
		for p := 0; p < NumPorts; p++ {
			if ip := r.in[p]; ip != nil {
				if ip.ch != nil && ip.ch.len() != 0 {
					return fmt.Errorf("noc: router %d %s channel holds %d flits after drain", id, PortName(p), ip.ch.len())
				}
				for v := range ip.vcs {
					if len(ip.vcs[v].buf) != 0 {
						return fmt.Errorf("noc: router %d %s vc%d buffer not empty after drain", id, PortName(p), v)
					}
				}
			}
			op := r.out[p]
			if op == nil {
				continue
			}
			portCredits := 0
			for v := range op.vcBusy {
				if op.vcBusy[v] {
					return fmt.Errorf("noc: router %d %s vc%d still allocated after drain", id, PortName(p), v)
				}
				if op.ch != nil {
					if want := op.share[v]; op.credits[v] != want {
						return fmt.Errorf("noc: router %d %s vc%d credits = %d, want %d",
							id, PortName(p), v, op.credits[v], want)
					}
					portCredits += op.credits[v]
				}
			}
			if op.ch != nil && portCredits != wantPortCredits {
				return fmt.Errorf("noc: router %d %s credit sum = %d, want %d (VCs*BufDepth + ChannelStages)",
					id, PortName(p), portCredits, wantPortCredits)
			}
		}
		if n.nics[id].pending() {
			return fmt.Errorf("noc: router %d NIC still pending after drain", id)
		}
	}
	return nil
}

// SetInitialMode puts every router in the given mode before the first
// time step (the paper initializes all routers to mode 1).
func (n *Network) SetInitialMode(mode Mode) {
	for _, r := range n.routers {
		n.applyMode(r, mode)
	}
}

// Drained reports whether the workload is fully delivered.
func (n *Network) Drained() bool {
	return n.gen.Exhausted() && n.outstanding == 0
}

// Result aggregates a finished run.
type Result struct {
	Cycles           int64
	PacketsDelivered uint64
	PacketsFailed    uint64
	FlitsDelivered   uint64
	AvgLatency       float64
	P95Latency       float64
	P99Latency       float64
	StaticJoules     float64
	DynamicJoules    float64
	HopRetransmits   uint64
	E2ERetransmits   uint64
	ModeBreakdown    stats.ModeBreakdown
	GatedCycles      uint64
	// ControlFaults counts parity-detected routing-table/BST upsets
	// (future-work extension; see Config.ControlFaultRate).
	ControlFaults  uint64
	ErrorHistogram [4]uint64
	// MTTFSeconds is the network's extrapolated mean time to failure,
	// combining per-router FITs as a series system (failures-in-time
	// add), per the Shin et al. architectural reliability framework the
	// paper uses for its FIT/MTTF numbers.
	MTTFSeconds float64
	// WorstMTTFSeconds is the single most-stressed router's MTTF.
	WorstMTTFSeconds float64
	AvgTempC         float64
	MaxTempC         float64
	Deadlocked       bool
}

// TotalJoules returns the run's total energy.
func (r Result) TotalJoules() float64 { return r.StaticJoules + r.DynamicJoules }

// EnergyEfficiency implements the paper's eq. 8:
// [(Pstatic+Pdynamic)·Texec]^-1, in 1/(W·s).
func (r Result) EnergyEfficiency() float64 {
	if r.Cycles == 0 {
		return 0
	}
	seconds := float64(r.Cycles) / power.ClockHz
	totalPower := r.TotalJoules() / seconds
	if totalPower <= 0 {
		return math.Inf(1)
	}
	return 1 / (totalPower * seconds)
}

// RetransmittedFlits returns hop-level plus end-to-end retransmissions.
func (r Result) RetransmittedFlits() uint64 { return r.HopRetransmits + r.E2ERetransmits }

// RunUntilDrained steps the network until the workload completes or
// maxCycles elapse, then returns the aggregated result.
func (n *Network) RunUntilDrained(maxCycles int64) (Result, error) {
	return n.RunContext(nil, maxCycles)
}

// RunContext is RunUntilDrained with cooperative cancellation: the context
// is polled every few steps, and on cancellation the partial result
// accumulated so far is returned together with an error wrapping
// ctx.Err(). A nil ctx (what RunUntilDrained passes) skips the polling
// entirely, so the uncancellable path costs nothing extra. Cancellation
// never perturbs a run that completes: the simulation state advances
// exactly as without a context until the moment the run stops.
func (n *Network) RunContext(ctx context.Context, maxCycles int64) (Result, error) {
	const stallLimit = 100_000
	const ctxPollInterval = 256 // steps between ctx.Err() polls
	poll := 0
	for !n.Drained() && n.cycle < maxCycles {
		if ctx != nil {
			if poll++; poll >= ctxPollInterval {
				poll = 0
				if err := ctx.Err(); err != nil {
					return n.Snapshot(), fmt.Errorf("noc: run canceled at cycle %d: %w", n.cycle, err)
				}
			}
		}
		n.step(maxCycles)
		if n.cycle-n.lastProgress > stallLimit {
			res := n.Snapshot()
			res.Deadlocked = true
			return res, fmt.Errorf("noc: no progress for %d cycles at cycle %d (%d packets outstanding)",
				stallLimit, n.cycle, n.outstanding)
		}
	}
	return n.Snapshot(), nil
}

// Snapshot returns the metrics accumulated so far.
func (n *Network) Snapshot() Result {
	var res Result
	res.Cycles = n.cycle
	res.PacketsDelivered = n.pktsDelivered
	res.PacketsFailed = n.pktsFailed
	res.FlitsDelivered = n.flitsDelivered
	res.AvgLatency = n.latency.Mean()
	res.P95Latency = n.latency.Percentile(95)
	res.P99Latency = n.latency.Percentile(99)
	for i, m := range n.meters {
		n.flushStatic(n.routers[i])
		res.StaticJoules += m.StaticJoules
		res.DynamicJoules += m.DynamicJoules
	}
	res.HopRetransmits = n.hopRetransmits
	res.E2ERetransmits = n.e2eRetransmits
	res.ModeBreakdown = n.modeBreakdown
	res.GatedCycles = n.gatedCycles
	res.ControlFaults = n.controlFaults
	res.ErrorHistogram = n.errHist
	worst := math.Inf(1)
	fitSum := 0.0
	for i := range n.wear {
		m := n.aging.MTTFSeconds(n.wear[i])
		if m < worst {
			worst = m
		}
		if !math.IsInf(m, 1) && m > 0 {
			fitSum += 1 / m
		}
	}
	res.WorstMTTFSeconds = worst
	if fitSum > 0 {
		res.MTTFSeconds = 1 / fitSum
	} else {
		res.MTTFSeconds = math.Inf(1)
	}
	if n.tempSamples > 0 {
		res.AvgTempC = n.tempSum / float64(n.tempSamples)
	}
	res.MaxTempC = n.grid.Max()
	return res
}
