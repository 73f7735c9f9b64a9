package harness

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Progress reports live sweep status — jobs done/total, cache hits, ETA,
// and worker utilization — to a writer (normally stderr), throttled to at
// most one line per interval. A nil *Progress is never dereferenced by
// the runner, so callers that want silence simply pass nil.
//
// Cache hits (results served from a digest-keyed store, and duplicate
// submissions deduplicated in flight) are tracked separately from
// executed jobs: they cost no wall time, so counting them as full-cost
// jobs would make the ETA wildly pessimistic once a warmed-up cache
// serves most of a batch. The ETA denominator covers executed jobs only;
// hits are reported in their own "+N cached" column.
type Progress struct {
	mu       sync.Mutex
	w        io.Writer
	label    string
	interval time.Duration
	now      func() time.Time

	total    int // jobs that will execute (excludes cache hits)
	done     int // executed jobs finished
	cached   int // digest-dedup and result-cache hits
	workers  int
	busy     time.Duration
	start    time.Time
	lastLine time.Time
}

// NewProgress builds a reporter writing to w under the given label.
func NewProgress(w io.Writer, label string) *Progress {
	return &Progress{w: w, label: label, interval: time.Second, now: time.Now}
}

func (p *Progress) begin(total, workers int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.total = total
	p.workers = workers
	p.done = 0
	p.cached = 0
	p.busy = 0
	p.start = p.now()
	p.lastLine = time.Time{}
}

// jobAdded grows the executable-job total as Pool submissions arrive.
func (p *Progress) jobAdded(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.total += n
}

// jobCached records a cache or dedup hit: finished work that consumed no
// worker time and must not weigh on the ETA.
func (p *Progress) jobCached(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cached += n
}

func (p *Progress) jobDone(wall time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	p.busy += wall
	if p.done < p.total && p.now().Sub(p.lastLine) < p.interval {
		return
	}
	p.lastLine = p.now()
	p.print()
}

func (p *Progress) finish() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.total == 0 && p.cached == 0 {
		return
	}
	if p.done < p.total { // aborted early; emit a final snapshot
		p.print()
	}
}

// eta estimates the remaining wall time from executed jobs only; cache
// hits are excluded from both the per-job cost sample and the remaining
// count. Assumes p.mu is held.
func (p *Progress) eta() time.Duration {
	if p.done == 0 || p.done >= p.total || p.workers <= 0 {
		return 0
	}
	perJob := p.busy / time.Duration(p.done)
	return perJob * time.Duration(p.total-p.done) / time.Duration(p.workers)
}

// print assumes p.mu is held.
func (p *Progress) print() {
	elapsed := p.now().Sub(p.start)
	util := 0.0
	if elapsed > 0 && p.workers > 0 {
		util = float64(p.busy) / (float64(elapsed) * float64(p.workers)) * 100
		if util > 100 {
			util = 100
		}
	}
	cached := ""
	if p.cached > 0 {
		cached = fmt.Sprintf(" (+%d cached)", p.cached)
	}
	fmt.Fprintf(p.w, "%s: %d/%d jobs%s | elapsed %s | eta %s | workers %d | util %.0f%%\n",
		p.label, p.done, p.total, cached, elapsed.Round(time.Second), p.eta().Round(time.Second),
		p.workers, util)
}

// ProgressSnapshot is a point-in-time view of a Progress, exposed for
// tests and tooling that need the numbers rather than the rendered line.
type ProgressSnapshot struct {
	// Done and Total count executed jobs only.
	Done, Total int
	// Cached counts dedup and result-cache hits (excluded from Total).
	Cached  int
	Workers int
	// ETA is the estimated remaining wall time over executed jobs.
	ETA time.Duration
}

// Snapshot returns the current counters and ETA.
func (p *Progress) Snapshot() ProgressSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	return ProgressSnapshot{
		Done: p.done, Total: p.total, Cached: p.cached,
		Workers: p.workers, ETA: p.eta(),
	}
}
