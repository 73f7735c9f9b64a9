package main

import (
	"io"

	"intellinoc/internal/harness"
	"intellinoc/internal/telemetry"
)

// telemetryTap is the suite's telemetry.JobTap: observe is the suite's
// RunOptions.Observer, serve backs -telemetry-addr and writeDir
// -telemetry-dir.
type telemetryTap struct {
	observe  func(harness.Record)
	serve    func(addr string, errlog io.Writer) (*telemetry.OpsServer, error)
	writeDir func(dir string) error
}

func newTelemetryTap() *telemetryTap {
	t := telemetry.NewJobTap(telemetry.JobTapSpec{
		Expvar:   "experiments",
		Process:  "experiment harness",
		Category: "job",
		Jobs:     telemetry.Metric{Name: "experiments_jobs_completed_total", Help: "Finished harness jobs (all kinds)."},
		Kinds: map[string]telemetry.Metric{
			"pretrain": {Name: "experiments_pretrain_jobs_total", Help: "Finished policy pre-training jobs."},
		},
		Retries: telemetry.Metric{Name: "experiments_job_retries_total", Help: "Extra attempts beyond the first, summed over jobs."},
		Wall:    telemetry.Metric{Name: "experiments_job_wall_ms", Help: "Per-job wall time in milliseconds."},
		Buckets: []float64{10, 100, 500, 1000, 5000, 15000, 60000, 300000},
	})
	return &telemetryTap{observe: t.Observe, serve: t.Serve, writeDir: t.WriteDir}
}
