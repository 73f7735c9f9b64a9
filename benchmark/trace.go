package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"intellinoc/internal/telemetry"
)

// Trace tracks (thread ids under pid 1) for the benchmark's own spans.
const (
	tidPhase = iota
	tidWindow
	tidClientA
	tidClientB
)

// Process ids: the benchmark's own spans, and lane-packed job spans.
const (
	pidBench = 1
	pidJobs  = 2
)

// tracer records spans around calls into the simulator's layers and
// writes them through telemetry.Trace, so the file opens in Perfetto.
// High-frequency calls (Step, Next) are aggregated by the caller into
// count + busy time and land here as one counter sample each, not as
// spans. A nil tracer records nothing.
type tracer struct {
	t0 time.Time
	tr *telemetry.Trace
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), tr: telemetry.NewTrace()}
	t.tr.SetProcessName(pidBench, "benchmark")
	t.tr.SetProcessName(pidJobs, "jobs (start = record arrival - wall_ms)")
	for tid, name := range []string{"phases", "windows and sub-phases", "client A (cold)", "client B (hits)"} {
		t.tr.SetThreadName(pidBench, tid, name)
	}
	return t
}

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.t0).Nanoseconds()) / 1e3 }

// span records [start, end) on one of the benchmark's tracks; cat names
// the layer the span's time is spent in.
func (t *tracer) span(tid int, name, cat string, start, end time.Time, args map[string]any) {
	if t == nil {
		return
	}
	t.tr.Complete(pidBench, tid, name, cat, t.us(start), float64(end.Sub(start).Nanoseconds())/1e3, args)
}

// jobs records spans whose worker is not visible from outside; they are
// packed onto the fewest non-overlapping lanes.
func (t *tracer) jobs(cat string, spans []telemetry.Span) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.tr.AddSpans(pidJobs, cat, spans)
}

// jobSpan turns a job whose end was observed at arrival into a span.
func (t *tracer) jobSpan(name string, arrival time.Time, wallMS float64, args map[string]any) telemetry.Span {
	end := t.us(arrival)
	return telemetry.Span{Name: name, Start: end - wallMS*1e3, Duration: wallMS * 1e3, Args: args}
}

// aggregate records a high-frequency call's count and busy time.
func (t *tracer) aggregate(name string, at time.Time, count int64, busy time.Duration) {
	if t == nil {
		return
	}
	t.tr.Counter(pidBench, name, t.us(at), map[string]any{"calls": count, "busy_ms": float64(busy.Nanoseconds()) / 1e6})
}

func (t *tracer) spans() int { return t.tr.Len() }

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := t.tr.WriteJSON(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// heapSampler tracks the peak live heap while a measured phase runs:
// the heap the last completed GC found reachable, sampled every few
// milliseconds, with a forced collection when the phase starts and one
// when it ends. Unlike
// the allocated-but-not-yet-collected heap, which swings with GC
// timing, the live heap is a property of the program's state.
// runtime/metrics reads without stopping the world.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	once sync.Once
	peak uint64 // written by the sampling goroutine until done closes
}

const heapMetric = "/gc/heap/live:bytes"

func (h *heapSampler) sample(s []metrics.Sample) {
	metrics.Read(s)
	h.peak = max(h.peak, s[0].Value.Uint64())
}

func startHeapSampler() *heapSampler {
	// Collect first, so the live heap read before the next GC is this
	// phase's and not what set-up left behind.
	runtime.GC()
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			h.sample(s)
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peakMB stops the sampler (once; later calls only read) and returns
// the peak in MB (2^20 bytes).
func (h *heapSampler) peakMB() float64 {
	h.once.Do(func() {
		close(h.stop)
		<-h.done
		runtime.GC()
		h.sample([]metrics.Sample{{Name: heapMetric}})
	})
	return float64(h.peak) / (1 << 20)
}

// allocObjects reads the cumulative count of heap allocations.
func allocObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
