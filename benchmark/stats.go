package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// ladder is the set of percentiles a tail may be reported at. A fixed
// ladder keeps the reported percentile the same from run to run when the
// sample count drifts a little, so two runs compare like with like. It
// stops at p99: the p99.9 of daemon-replay's tens of thousands of cache
// hits moved by a quarter between runs on a shared host.
var ladder = []float64{50, 75, 90, 95, 99}

// minBeyond is how many samples must lie above a tail percentile for it
// to be reported: fewer and the "tail" is one or two outliers.
const minBeyond = 10

// tail is a tail percentile together with the evidence behind it.
type tail struct {
	P      float64 // percentile, from ladder
	Value  float64
	N      int // samples
	Beyond int // samples ranked above the percentile
}

func (t tail) String() string {
	return fmt.Sprintf("p%g of %d samples, %d beyond", t.P, t.N, t.Beyond)
}

// rank returns the 1-based nearest-rank index of percentile p in n
// samples.
func rank(p float64, n int) int {
	// The epsilon keeps float error (99.9/100*10000 = 9990.000000000002)
	// from pushing an exact rank up by one.
	k := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if k < 1 {
		k = 1
	}
	return k
}

// tailOf returns the highest ladder percentile with at least minBeyond
// samples ranked above it. With too few samples for even the median to
// qualify it falls back to the median, and Beyond says how thin it is.
func tailOf(xs []float64) tail {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return tail{}
	}
	best := tail{P: 50, N: n}
	k := rank(50, n)
	best.Value, best.Beyond = s[k-1], n-k
	for _, p := range ladder {
		k := rank(p, n)
		if n-k >= minBeyond {
			best = tail{P: p, Value: s[k-1], N: n, Beyond: n - k}
		}
	}
	return best
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// plateau decides when a warm-up has reached steady state. Each series
// is a per-window measurement (host cycles/s, delivered flits/cycle);
// the warm-up is over once, for every series, the last Windows values
// lie within Tol of their mean (relative range).
type plateau struct {
	Windows int
	Tol     []float64 // one per series
}

// reached reports whether the series (all of equal length) have
// plateaued at their latest window.
func (p plateau) reached(series ...[]float64) bool {
	for i, s := range series {
		if len(s) < p.Windows {
			return false
		}
		last := s[len(s)-p.Windows:]
		mean := sum(last) / float64(len(last))
		if mean <= 0 {
			return false
		}
		lo, hi := last[0], last[0]
		for _, x := range last {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		if (hi-lo)/mean > p.Tol[i] {
			return false
		}
	}
	return true
}

// job is the view of a harness record the schedule arithmetic needs.
type job struct {
	Digest string
	Kind   string // "pretrain" or "run"
	WallMS float64
	// Dep is the digest of the pretrain job a run waits for ("" = none).
	Dep string
}

// criticalPathMS is the longest pretrain→run chain: a run that needs a
// policy cannot finish before that policy's pretrain plus its own wall.
func criticalPathMS(jobs []job) float64 {
	pre := make(map[string]float64)
	for _, j := range jobs {
		if j.Kind == "pretrain" {
			pre[j.Digest] = j.WallMS
		}
	}
	longest := 0.0
	for _, j := range jobs {
		chain := j.WallMS
		if j.Dep != "" {
			chain += pre[j.Dep]
		}
		longest = math.Max(longest, chain)
	}
	return longest
}

// utilization is the share of worker capacity the jobs kept busy:
// Σ job wall ÷ (elapsed wall × workers).
func utilization(jobs []job, wallMS float64, workers int) float64 {
	if wallMS <= 0 || workers <= 0 {
		return 0
	}
	busy := 0.0
	for _, j := range jobs {
		busy += j.WallMS
	}
	return busy / (wallMS * float64(workers))
}

// opCount tallies operations attempted and the ones that did not
// succeed. A refusal (429, 503) or any other non-2xx answer counts as a
// failure: the user did not get what was asked for.
type opCount struct {
	Attempted, Failed int
}

// http records one HTTP exchange by its status (0 = transport error).
func (c *opCount) http(status int) {
	c.Attempted++
	if status < 200 || status > 299 {
		c.Failed++
	}
}

// add records one non-HTTP operation.
func (c *opCount) add(ok bool) {
	c.Attempted++
	if !ok {
		c.Failed++
	}
}

func (c *opCount) merge(o opCount) {
	c.Attempted += o.Attempted
	c.Failed += o.Failed
}

// failedFrac is failed ÷ attempted (0 when nothing was attempted).
func (c opCount) failedFrac() float64 {
	if c.Attempted == 0 {
		return 0
	}
	return float64(c.Failed) / float64(c.Attempted)
}

// another reports whether one more pass of length last should start:
// a pass starts while at least half of it fits in the budget, and the
// first pass always runs.
func another(start time.Time, budget, last time.Duration, passes int) bool {
	return passes == 0 || time.Since(start)+last/2 <= budget
}
