package telemetry

import (
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"intellinoc/internal/harness"
)

// Metric names one Prometheus series and its help string.
type Metric struct{ Name, Help string }

// JobTapSpec names everything a JobTap exports, so each front end keeps
// its own metric names and trace labels.
type JobTapSpec struct {
	// Expvar names the registry's map at /debug/vars when serving.
	Expvar string
	// Process and Category label the Chrome-trace timeline.
	Process, Category string
	// Jobs counts observed records; Kinds adds a counter per job Kind.
	Jobs  Metric
	Kinds map[string]Metric
	// Retries sums attempts beyond the first.
	Retries Metric
	// Wall is the per-job wall-time histogram (ms) over Buckets.
	Wall    Metric
	Buckets []float64
}

// JobTap aggregates finished harness records into a metrics registry and
// a Chrome-trace job timeline. Observe is a harness Observer; every
// method is safe for concurrent use. Results never depend on the tap.
type JobTap struct {
	spec  JobTapSpec
	reg   *Registry
	start time.Time

	jobs    *Counter
	kinds   map[string]*Counter
	retried *Counter
	wallMS  *Histogram

	mu    sync.Mutex
	spans []Span
}

// NewJobTap registers the spec's metrics in a fresh registry.
func NewJobTap(spec JobTapSpec) *JobTap {
	reg := NewRegistry()
	t := &JobTap{
		spec:    spec,
		reg:     reg,
		start:   time.Now(),
		jobs:    reg.Counter(spec.Jobs.Name, spec.Jobs.Help),
		kinds:   make(map[string]*Counter, len(spec.Kinds)),
		retried: reg.Counter(spec.Retries.Name, spec.Retries.Help),
		wallMS:  reg.Histogram(spec.Wall.Name, spec.Wall.Help, spec.Buckets),
	}
	for kind, m := range spec.Kinds {
		t.kinds[kind] = reg.Counter(m.Name, m.Help)
	}
	return t
}

// Observe consumes one finished harness record.
func (t *JobTap) Observe(rec harness.Record) {
	t.jobs.Inc()
	if c := t.kinds[rec.Kind]; c != nil {
		c.Inc()
	}
	if rec.Attempts > 1 {
		t.retried.Add(uint64(rec.Attempts - 1))
	}
	t.wallMS.Observe(rec.WallMS)

	// Timeline span: the record carries only its duration, so the start is
	// reconstructed from the observation time. 1 µs of trace time = 1 µs of
	// wall time here (the harness timeline is real time, not sim cycles).
	endUS := float64(time.Since(t.start).Microseconds())
	t.mu.Lock()
	t.spans = append(t.spans, Span{
		Name:     rec.Name,
		Start:    endUS - rec.WallMS*1000,
		Duration: rec.WallMS * 1000,
		Args:     map[string]any{"kind": rec.Kind, "digest": rec.Digest, "attempts": rec.Attempts},
	})
	t.mu.Unlock()
}

// WriteDir snapshots the tap into dir: metrics.prom (Prometheus text) and
// timeline.json (Chrome trace of the job schedule, lanes packed greedily).
func (t *JobTap) WriteDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mf, err := os.Create(filepath.Join(dir, "metrics.prom"))
	if err != nil {
		return err
	}
	if err := t.reg.WritePrometheus(mf); err != nil {
		mf.Close()
		return err
	}
	if err := mf.Close(); err != nil {
		return err
	}

	tr := NewTrace()
	tr.SetProcessName(1, t.spec.Process)
	t.mu.Lock()
	spans := make([]Span, len(t.spans))
	copy(spans, t.spans)
	t.mu.Unlock()
	tr.AddSpans(1, t.spec.Category, spans)
	tf, err := os.Create(filepath.Join(dir, "timeline.json"))
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(tf); err != nil {
		tf.Close()
		return err
	}
	return tf.Close()
}

// Serve exposes the tap over HTTP while jobs run: the registry's
// Prometheus snapshot at /metrics, expvar at /debug/vars, and the pprof
// profiling endpoints (OpsHandler — the same surface cmd/intellinocd
// mounts). The caller must Shutdown the returned server when the jobs
// complete, so neither the listener nor the serve goroutine (nor a late
// write to errlog) outlives the run. addr may use port 0; the bound
// address is in the result.
func (t *JobTap) Serve(addr string, errlog io.Writer) (*OpsServer, error) {
	// Expvar publication is scoped per name and rebinds on re-publish,
	// so a second tap in the same process serves its own (fresh) values
	// instead of the first tap's abandoned registry.
	t.reg.PublishExpvar(t.spec.Expvar)
	return ServeOps(addr, OpsHandler(t.reg), errlog)
}
