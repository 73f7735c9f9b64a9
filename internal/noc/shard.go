package noc

import (
	"runtime"
	"sync/atomic"
)

// The phase driver: step() runs each cycle as three parallel per-router
// scan phases around order-sensitive sequential work. A network steps
// with Config.Shards contiguous router-id ranges (at least one); with one
// shard every phase runs inline on the calling goroutine, with more the
// phases fan out across a pool of worker goroutines. Results are
// bit-identical at any shard count.
//
// The network cannot be naively partitioned because the schedule has
// same-cycle cross-router visibility in exactly one place: when router
// i's switch allocation pops a flit, the freed buffer slot's credit
// returns to the upstream router immediately, and a higher-numbered router
// j > i sees that credit within the same cycle's arbitration pass. So the
// driver keeps every order-sensitive mutation — arbitration with its
// credit chain, link PRNG draws, ejection, packet/flit id assignment,
// floating-point meter flushes — on the coordinating goroutine in router
// index order, and parallelizes only the per-router scans whose reads
// provably cannot observe another router's same-phase writes:
//
//	phase A  power-state, channel delivery, SA candidate build  (own router/channels/input VCs)
//	phase B  VA + RC after all SA commits                       (own ports; no credits)
//	phase C  per-cycle accounting, staged link pushes           (own counters/channels)
//
// Phase A fuses three per-router steps: a router's delivery touches only
// its own input channels and buffers, which no other router's power-state
// step reads, and the SA candidate build reads only the router's own input
// VCs, which that cycle only its own delivery writes — commits never touch
// another router's input VCs, so the candidates built ahead of the commit
// pass are the ones the router would have seen at its turn.
//
// VA and RC run after the whole commit pass (instead of right after each
// router's SA) because both read and write only their own router's ports
// and never consult credits — the one cross-router channel — and the
// per-router sa-before-va-before-rc order is preserved. When
// ControlFaultRate > 0, RC draws from the control-fault PRNG in a fixed
// (router, port, VC) order; since that stream is touched nowhere else and
// the set of VCs that draw is fully determined once the commit pass is
// done, the coordinator pre-draws the tick's values in router order
// (predrawControlFaults) and phase B consumes the banked draws.
//
// Cross-router side effects of the parallel phases (bufferedFlits,
// lastProgress, event emission) are accumulated per shard in a shardSlot
// and committed at the barrier in shard order, which equals router-index
// order because shards are contiguous router-id ranges (a geometry-free
// partition: no phase assumes a shard is a row slab, so the same split
// serves meshes, tori, chiplet hierarchies, and routerless loops alike).
// Event hooks therefore fire only from the coordinating goroutine, in a
// fixed order — the single-goroutine guarantee SetEventHook documents.

// Phase selectors for shardPool.runPhase.
const (
	phaseScan = iota
	phaseVARC
	phaseAccount
)

// shardSlot accumulates one shard's cross-router side effects during a
// parallel phase, for an in-order commit at the barrier.
type shardSlot struct {
	gateEvents    []Event // power-state (EvGate/EvWake), router order
	deliverEvents []Event // delivery (EvDeliver), router order
	buffered      int     // bufferedFlits delta
	progress      bool    // any delivery happened (lastProgress = cy)
	gatedCycles   uint64  // accounting-phase gated-cycle delta
	controlFaults uint64  // VA+RC-phase control-fault delta
	// stagedLinks holds the link pushes bound for this shard's channels,
	// appended by the coordinator during the commit pass and drained by
	// the owning shard in the accounting phase (see stagedPush).
	stagedLinks []stagedPush
}

// emitGate buffers a power-state event for the in-order flush at the
// barrier.
func (slot *shardSlot) emitGate(n *Network, e Event) {
	if n.eventHook != nil {
		slot.gateEvents = append(slot.gateEvents, e)
	}
}

// stagedPush is one deferred Channel.push. The commit pass runs entirely
// on the coordinator; staging its ring insertions — often into a channel
// owned by another shard's id range — per destination shard and draining
// them in the parallel accounting phase moves the ring work off the
// coordinator and keeps the channel cache lines shard-local. The deferral
// is invisible to the tick: a pushed flit's readyAt is at least cy+2,
// every channel has exactly one upstream writer granting at most one flit
// per cycle, and nothing between the commit pass and the accounting phase
// reads channels.
type stagedPush struct {
	ch      *Channel
	flit    *Flit
	readyAt int64
}

// shardWorker is the parking state of one worker goroutine. Workers spin
// briefly between phases (the inter-phase gaps are microseconds), then
// park on the wake channel so an idle or abandoned network doesn't burn a
// core.
type shardWorker struct {
	wake   chan struct{}
	parked atomic.Bool
}

// shardPool partitions the routers into shards and runs the parallel
// phases over them. The coordinating goroutine (whoever calls Step)
// executes shard 0 itself and every sequential commit in between; with
// more than one shard, workers 1..S-1 wait for the epoch counter to
// advance, run the posted phase over their router range, and signal
// completion. All cross-goroutine handoff is through sync/atomic, which
// the race detector understands.
type shardPool struct {
	n       *Network
	lo, hi  []int   // router id range [lo, hi) per shard (contiguous, ascending)
	shardOf []int32 // owning shard per router id
	slots   []*shardSlot

	// Switch-allocation candidate scratch, indexed by router id: written
	// by the owning shard in phase A, consumed by the commit pass. Each
	// router's candSize entries hold NumPorts output lists of up to
	// NumPorts×VCs input slots; a slot index (below NumPorts×maxVCs = 40)
	// fits a byte.
	cand     []uint8
	candN    [][NumPorts]uint8
	hasCand  []bool
	candSize int

	cy      int64 // cycle being stepped; published by epoch.Add
	phase   int   // phase to run; published by epoch.Add
	epoch   atomic.Uint32
	pending atomic.Int32
	closed  atomic.Bool
	workers []*shardWorker // nil until the first multi-shard step
}

func newShardPool(n *Network, shards int) *shardPool {
	nodes := len(n.routers)
	size := NumPorts * NumPorts * n.cfg.VCs
	sp := &shardPool{
		n:        n,
		cand:     make([]uint8, nodes*size),
		candN:    make([][NumPorts]uint8, nodes),
		hasCand:  make([]bool, nodes),
		candSize: size,
	}
	sp.shardOf = make([]int32, nodes)
	for s := 0; s < shards; s++ {
		sp.lo = append(sp.lo, s*nodes/shards)
		sp.hi = append(sp.hi, (s+1)*nodes/shards)
		sp.slots = append(sp.slots, &shardSlot{})
		for id := sp.lo[s]; id < sp.hi[s]; id++ {
			sp.shardOf[id] = int32(s)
		}
	}
	return sp
}

// routerCand returns router id's candidate lists.
func (sp *shardPool) routerCand(id int) []uint8 {
	return sp.cand[id*sp.candSize : (id+1)*sp.candSize]
}

// start launches the worker goroutines of a multi-shard pool.
func (sp *shardPool) start() {
	sp.closed.Store(false)
	epoch := sp.epoch.Load()
	for s := 1; s < len(sp.slots); s++ {
		w := &shardWorker{wake: make(chan struct{}, 1)}
		sp.workers = append(sp.workers, w)
		go sp.workerLoop(s, w, epoch)
	}
}

// Close stops the worker goroutines of a multi-shard network and waits
// for them to exit. It is a no-op on a single-shard network and safe to
// call repeatedly; stepping again after Close starts fresh workers. Like
// Step, it must not race other methods of the Network.
func (n *Network) Close() {
	n.pool.close()
}

func (sp *shardPool) close() {
	if sp.workers == nil {
		return
	}
	sp.pending.Store(int32(len(sp.workers)))
	sp.closed.Store(true)
	sp.epoch.Add(1)
	sp.wakeParked()
	for sp.pending.Load() != 0 {
		runtime.Gosched()
	}
	sp.workers = nil
}

func (sp *shardPool) wakeParked() {
	for _, w := range sp.workers {
		if w.parked.Load() {
			select {
			case w.wake <- struct{}{}:
			default:
			}
		}
	}
}

func (sp *shardPool) workerLoop(s int, w *shardWorker, last uint32) {
	for {
		spins := 0
		for sp.epoch.Load() == last {
			spins++
			if spins < 64 {
				continue
			}
			if spins < 1024 {
				runtime.Gosched()
				continue
			}
			// Park. The epoch re-check after publishing parked closes the
			// race with a coordinator that bumped the epoch before seeing
			// the flag; a stale wake token only causes one extra loop.
			w.parked.Store(true)
			if sp.epoch.Load() == last {
				<-w.wake
			}
			w.parked.Store(false)
		}
		last = sp.epoch.Load()
		if sp.closed.Load() {
			sp.pending.Add(-1)
			return
		}
		sp.runShard(sp.phase, s)
		sp.pending.Add(-1)
	}
}

// runPhase runs a phase over every shard and returns when all are done —
// the per-cycle barrier. A single shard runs inline; otherwise the phase
// is posted to the workers, shard 0 runs on the calling goroutine, and
// runPhase blocks until every worker has finished.
func (sp *shardPool) runPhase(phase int) {
	if len(sp.slots) == 1 {
		sp.runShard(phase, 0)
		return
	}
	sp.phase = phase
	sp.pending.Store(int32(len(sp.workers)))
	sp.epoch.Add(1)
	sp.wakeParked()
	sp.runShard(phase, 0)
	for spins := 0; sp.pending.Load() != 0; spins++ {
		if spins > 32 {
			runtime.Gosched()
		}
	}
}

func (sp *shardPool) runShard(phase, s int) {
	switch phase {
	case phaseScan:
		sp.scan(s)
	case phaseVARC:
		sp.vaRC(s)
	case phaseAccount:
		sp.account(s)
	}
}

// scan is phase A for one shard: per router, the power-state step, then
// channel delivery, then the read-only half of switch allocation. Gated
// and waking routers get no delivery or candidates (a gated bypass
// router forwards in the commit pass instead), and neither do quiescent
// ones.
func (sp *shardPool) scan(s int) {
	n, cy, slot := sp.n, sp.cy, sp.slots[s]
	gating := n.cfg.PowerGating || n.cfg.Bypass // else no router ever gates or wakes
	for id, hi := sp.lo[s], sp.hi[s]; id < hi; id++ {
		r := n.routers[id]
		if gating {
			n.powerStateStep(r, cy, slot)
		}
		if !n.active(id) {
			continue
		}
		n.deliverChannels(r, cy, slot)
		if n.rBufCount[id] > 0 {
			n.saBuild(r, sp.routerCand(id), &sp.candN[id])
			sp.hasCand[id] = true
		}
	}
}

// vaRC is phase B for one shard: VA and RC for its routers, after every
// SA commit. Routers whose buffers drained during the commit pass are
// skipped (both stages skip empty VCs). The control-fault count
// accumulates in the slot for a commutative commit at the barrier.
func (sp *shardPool) vaRC(s int) {
	n, cy, slot := sp.n, sp.cy, sp.slots[s]
	for id, hi := sp.lo[s], sp.hi[s]; id < hi; id++ {
		if n.active(id) && n.rBufCount[id] > 0 {
			n.vaRCStage(n.routers[id], cy, slot)
		}
	}
}

// account is phase C for one shard: it drains the shard's staged link
// pushes (see stagedPush) and runs the per-cycle accounting. Each staged
// channel belongs to a router in this shard, no other accounting scan
// touches channels, and per channel there is at most one push per cycle,
// so the drain is race-free and leaves the rings in commit order. The
// gated-cycle counter is global, so its delta commits at the barrier.
func (sp *shardPool) account(s int) {
	n, slot := sp.n, sp.slots[s]
	for i, st := range slot.stagedLinks {
		st.ch.push(st.flit, st.readyAt)
		slot.stagedLinks[i] = stagedPush{}
	}
	slot.stagedLinks = slot.stagedLinks[:0]
	lo, hi := sp.lo[s], sp.hi[s]
	rGated, rBufCount, rStatic := n.rGated[lo:hi], n.rBufCount[lo:hi], n.rStatic[lo:hi]
	gated := uint64(0)
	for i := range rStatic {
		rStatic[i]++
		if rGated[i] {
			gated++
		}
		if rBufCount[i] == 0 {
			continue // every port occupancy is zero
		}
		base := (lo + i) * NumPorts
		occ, win := n.portOcc[base:base+NumPorts], n.winOcc[base:base+NumPorts]
		for p := range win {
			win[p] += uint64(occ[p])
		}
	}
	slot.gatedCycles += gated
}
