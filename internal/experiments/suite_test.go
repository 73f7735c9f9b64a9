package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"intellinoc/internal/core"
	"intellinoc/internal/harness"
)

func tinySuite(t *testing.T, only ...string) *Suite {
	t.Helper()
	s, err := NewSuite(SuiteOptions{
		Sim:          core.SimConfig{Width: 4, Height: 4, TimeStepCycles: 500, Seed: 11},
		Packets:      400,
		Quick:        true,
		Only:         only,
		Benchmarks:   []string{"swaptions", "ferret"},
		SweepBenches: []string{"swaptions"},
		Techniques:   []core.Technique{core.TechSECDED, core.TechIntelliNoC},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func renderAll(figs []Figure) string {
	var b strings.Builder
	for _, f := range figs {
		b.WriteString(f.Markdown())
		b.WriteString("\n")
	}
	return b.String()
}

func TestNewSuiteRejectsUnknownIDs(t *testing.T) {
	_, err := NewSuite(SuiteOptions{Only: []string{"fig9", "fig99"}})
	if err == nil || !strings.Contains(err.Error(), "fig99") {
		t.Fatalf("want unknown-id error naming fig99, got %v", err)
	}
}

func TestSuiteQuickDropsExtensions(t *testing.T) {
	s := tinySuite(t)
	for _, ex := range s.Experiments {
		for _, id := range ex.IDs {
			switch id {
			case "ablation", "loadsweep", "ext-ctrlfaults", "ext-sarsa":
				t.Fatalf("quick suite must not include %s", id)
			}
		}
	}
}

func TestSuiteSharesSpecsAcrossExperiments(t *testing.T) {
	s := tinySuite(t, "fig18a", "fig18b")
	total := 0
	for _, ex := range s.Experiments {
		total += len(ex.Specs)
	}
	unique := len(s.SortedDigests())
	// Both sweeps normalize against the same SECDED blackscholes
	// baseline, so at least one spec must deduplicate.
	if unique >= total {
		t.Fatalf("expected cross-experiment dedup: %d unique of %d specs", unique, total)
	}
}

func TestSuiteReportInvariantAcrossWorkers(t *testing.T) {
	s := tinySuite(t, "fig17a", "table2")
	r1, err := s.Run(RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rN, err := tinySuite(t, "fig17a", "table2").Run(RunOptions{Workers: 7})
	if err != nil {
		t.Fatal(err)
	}
	if renderAll(r1.Figures) != renderAll(rN.Figures) {
		t.Fatalf("report differs between -workers 1 and -workers 7:\n%s\n---\n%s",
			renderAll(r1.Figures), renderAll(rN.Figures))
	}
}

func TestSuiteResumeIsByteIdentical(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "results.jsonl")

	full, err := tinySuite(t, "fig17a").Run(RunOptions{Workers: 2, ResultsPath: path})
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(full.Figures)
	if full.JobsRun == 0 {
		t.Fatal("uninterrupted run executed no jobs")
	}

	// Simulate a kill mid-sweep: drop the last two records and leave a
	// partial trailing line. The kept prefix holds some of the runs; a
	// policy those runs need may or may not be in it.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) < 4 {
		t.Fatalf("stream too short to truncate meaningfully: %d lines", len(lines))
	}
	keep := len(lines) - 2
	keptRuns := 0
	for _, l := range lines[:keep] {
		if strings.Contains(l, `"kind":"run"`) {
			keptRuns++
		}
	}
	if keptRuns == 0 {
		t.Fatalf("truncation kept no run records out of %d lines", keep)
	}
	truncated := strings.Join(lines[:keep], "") + `{"digest":"torn-`
	if err := os.WriteFile(path, []byte(truncated), 0o644); err != nil {
		t.Fatal(err)
	}

	resumed, err := tinySuite(t, "fig17a").Run(RunOptions{Workers: 2, ResultsPath: path, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.JobsCached != keptRuns {
		t.Fatalf("resume skipped %d run jobs, want %d", resumed.JobsCached, keptRuns)
	}
	if resumed.SkippedLines != 1 {
		t.Fatalf("resume tolerated %d corrupt lines, want 1", resumed.SkippedLines)
	}
	if resumed.JobsRun == 0 {
		t.Fatal("resume re-ran nothing; truncation had no effect")
	}
	if got := renderAll(resumed.Figures); got != want {
		t.Fatalf("resumed report differs from uninterrupted:\n%s\n---\n%s", got, want)
	}

	// A second resume finds everything cached and runs zero jobs.
	again, err := tinySuite(t, "fig17a").Run(RunOptions{Workers: 2, ResultsPath: path, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if again.JobsRun != 0 {
		t.Fatalf("fully-cached resume still ran %d jobs", again.JobsRun)
	}
	if got := renderAll(again.Figures); got != want {
		t.Fatal("fully-cached resume report differs")
	}
}

// TestSuiteRunWaitsForItsPolicy checks the pretrain→run dependency in
// the shared pool: in the results stream, every run that needs a policy
// comes after that policy's pretrain record, at any worker count.
func TestSuiteRunWaitsForItsPolicy(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			s := tinySuite(t, "fig17a")
			policyOf := make(map[string]string) // run digest -> policy digest
			for _, ex := range s.Experiments {
				for _, ls := range ex.Specs {
					if p := ls.Spec.Policy; p != nil {
						policyOf[ls.Spec.Digest()] = p.Digest()
					}
				}
			}
			if len(policyOf) == 0 {
				t.Fatal("fig17a plan has no policy-dependent runs")
			}
			path := filepath.Join(t.TempDir(), "results.jsonl")
			if _, err := s.Run(RunOptions{Workers: workers, ResultsPath: path}); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			pretrained := make(map[string]bool)
			checked := 0
			for i, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
				var rec harness.Record
				if err := json.Unmarshal([]byte(line), &rec); err != nil {
					t.Fatalf("line %d: %v", i+1, err)
				}
				switch rec.Kind {
				case "pretrain":
					pretrained[rec.Digest] = true
				case "run":
					if p, ok := policyOf[rec.Digest]; ok {
						if !pretrained[p] {
							t.Fatalf("line %d: run %s precedes its policy's pretrain record %s", i+1, rec.Name, p[:8])
						}
						checked++
					}
				}
			}
			if checked != len(policyOf) {
				t.Fatalf("stream holds %d of %d policy-dependent runs", checked, len(policyOf))
			}
		})
	}
}

// TestSuiteFailedPretrainFailsSuite: a pretrain job that fails fails the
// suite with its own error, and the run waiting on that policy is never
// submitted.
func TestSuiteFailedPretrainFailsSuite(t *testing.T) {
	s := tinySuite(t, "fig17a")
	var bad LabeledSpec
	for _, ls := range s.Experiments[0].Specs {
		if ls.Spec.Policy != nil {
			bad = ls
			break
		}
	}
	pol := *bad.Spec.Policy
	pol.Tech = core.TechSECDED.String() // no RL agents: training fails
	bad.Spec.Policy = &pol
	s.Experiments = []Experiment{{
		IDs: []string{"fig17a"}, Specs: []LabeledSpec{bad},
		Assemble: func(Lookup) ([]Figure, error) {
			t.Error("figures assembled after a failed pretrain")
			return nil, nil
		},
	}}
	path := filepath.Join(t.TempDir(), "results.jsonl")
	_, err := s.Run(RunOptions{Workers: 2, ResultsPath: path})
	if err == nil || !strings.Contains(err.Error(), "pretrain/") || !strings.Contains(err.Error(), "no RL agents") {
		t.Fatalf("want the pretrain job's own error, got %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 0 {
		t.Fatalf("stream holds records after a failed pretrain:\n%s", data)
	}
}

func TestSuiteRecordsQTableSize(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "results.jsonl")
	s := tinySuite(t, "fig9")
	res, err := s.Run(RunOptions{Workers: 2, ResultsPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxQTableEntries <= 0 {
		t.Fatalf("comparison run must report a Q-table size, got %d", res.MaxQTableEntries)
	}
	// On a fully-cached resume the size comes from the pretrain record.
	resumed, err := tinySuite(t, "fig9").Run(RunOptions{Workers: 2, ResultsPath: path, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.JobsRun != 0 {
		t.Fatalf("expected full cache hit, ran %d", resumed.JobsRun)
	}
	if resumed.MaxQTableEntries != res.MaxQTableEntries {
		t.Fatalf("resumed table size %d != original %d", resumed.MaxQTableEntries, res.MaxQTableEntries)
	}
}
