package noc

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"
)

var updateReference = flag.Bool("update", false, "rewrite testdata/stepper_reference.json from the current stepper")

const (
	referencePath     = "testdata/stepper_reference.json"
	referenceInterval = 64
)

// stepperTrace is one recorded run: the state fingerprint at every
// referenceInterval-th cycle up to the drain, and the final Result in
// %+v form (exact for floats, and JSON has no encoding for an infinite
// MTTF).
type stepperTrace struct {
	Name         string
	Fingerprints []uint64
	Result       string
}

// referenceCase is one configuration the reference file covers: every
// shardCases entry plus every topology family of TestTopologyShardLockstep.
type referenceCase struct {
	name    string
	cfg     Config
	ctrl    Controller
	rate    float64
	packets int
}

func referenceCases() []referenceCase {
	var cases []referenceCase
	for _, tc := range shardCases() {
		cases = append(cases, referenceCase{"shard/" + tc.name, tc.cfg, tc.ctrl, tc.rate, 300})
	}
	for _, g := range topologyGeometries() {
		cases = append(cases, referenceCase{
			fmt.Sprintf("topology/%s-%dx%d", g.spec, g.w, g.h), topoConfig(g.spec, g.w, g.h), nil, 0.12, 200})
	}
	return cases
}

// traceStepper runs a case to completion, fingerprinting the state at
// every referenceInterval-th cycle. The idle fast-forward is bounded at
// each interval boundary, so it lands on the boundary instead of
// skipping it, and the run still ends exactly at the drain cycle.
func traceStepper(t *testing.T, tc referenceCase, shards int) stepperTrace {
	t.Helper()
	cfg := tc.cfg
	cfg.Shards = shards
	n, err := New(cfg, uniformGen(t, cfg, tc.rate, tc.packets), tc.ctrl)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	const maxCycles = 300_000
	tr := stepperTrace{Name: tc.name}
	next := int64(referenceInterval)
	for !n.Drained() && n.Cycle() < maxCycles {
		n.step(next)
		if n.Cycle() == next {
			tr.Fingerprints = append(tr.Fingerprints, n.Fingerprint())
			next += referenceInterval
		}
	}
	if !n.Drained() {
		t.Fatalf("%s: stalled at cycle %d", tc.name, n.Cycle())
	}
	tr.Result = fmt.Sprintf("%+v", n.Snapshot())
	return tr
}

// TestStepperReference replays every reference case at several shard
// counts against traces the sequential stepper recorded before stepping
// became one phase driver (the schedule the golden digests were produced
// by). The lockstep tests compare shard counts of one driver with each
// other, so they cannot see a phase-ordering error that hits every shard
// count alike; the reference file can. Regenerate it only for an
// intended behaviour change: go test ./internal/noc -run
// TestStepperReference -update.
func TestStepperReference(t *testing.T) {
	cases := referenceCases()
	if *updateReference {
		var traces []stepperTrace
		for _, tc := range cases {
			traces = append(traces, traceStepper(t, tc, 0))
		}
		data, err := json.MarshalIndent(traces, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(referencePath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(referencePath)
	if err != nil {
		t.Fatal(err)
	}
	var traces []stepperTrace
	if err := json.Unmarshal(data, &traces); err != nil {
		t.Fatal(err)
	}
	if len(traces) != len(cases) {
		t.Fatalf("reference holds %d traces, want %d (regenerate with -update)", len(traces), len(cases))
	}
	for i, tc := range cases {
		want := traces[i]
		if want.Name != tc.name {
			t.Fatalf("reference trace %d is %q, want %q", i, want.Name, tc.name)
		}
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/shards%d", tc.name, shards), func(t *testing.T) {
				got := traceStepper(t, tc, shards)
				for k := range min(len(got.Fingerprints), len(want.Fingerprints)) {
					if got.Fingerprints[k] != want.Fingerprints[k] {
						t.Fatalf("fingerprint diverges at cycle %d", int64(k+1)*referenceInterval)
					}
				}
				if len(got.Fingerprints) != len(want.Fingerprints) {
					t.Fatalf("%d fingerprints, reference has %d", len(got.Fingerprints), len(want.Fingerprints))
				}
				if got.Result != want.Result {
					t.Fatalf("Result diverges:\ngot       %s\nreference %s", got.Result, want.Result)
				}
			})
		}
	}
}
