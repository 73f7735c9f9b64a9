// Command experiments regenerates every table and figure of the paper's
// evaluation section (Figs. 9-18 and Table 2) and optionally writes the
// results into EXPERIMENTS.md.
//
// The suite is decomposed into independent, deterministically-seeded
// simulation jobs executed on the internal/harness worker pool. The
// markdown report is byte-identical for any -workers value, and a run
// killed mid-sweep resumes from its -results JSONL to a byte-identical
// report (cmd/regress gates this in CI).
//
//	experiments                         # full suite, default budgets
//	experiments -quick                  # reduced budgets for a fast pass
//	experiments -only fig13,table2      # selected experiments
//	experiments -md EXPERIMENTS.md      # also write the markdown report
//	experiments -results run.jsonl      # stream every finished job
//	experiments -results run.jsonl -resume   # skip already-recorded jobs
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"intellinoc/internal/telemetry"
)

// divergences records where this reproduction's shapes knowingly differ
// from the paper's, and why. Appended to the markdown report.
const divergences = `## Known divergences from the paper

Reproduction targets *shape* (who wins, by roughly what factor), not
absolute numbers — the substrate is our own simulator with synthetic
workload models (see DESIGN.md §3). Matched shapes: IntelliNoC has the
best speed-up, the lowest latency, the lowest static and dynamic power,
the best energy-efficiency and the highest MTTF of the five designs;
Table 2's totals and %change columns match the paper to <0.1%; the RL
time-step sweep is U-shaped with ~1k cycles best; γ=0.9 / ε≈0.05 are the
best hyper-parameters.

Knowing differences:

1. **EB's speed-up is larger than the paper's (+13% vs +6%).** Our EB
   model gains the full 3-stage-pipeline benefit on every hop; the
   paper's EB presumably pays extra serialization at sub-network
   injection that we do not model.
2. **CPD's speed-up is below the paper's (+8% there, ~-3% here).** CPD's
   error heuristic reacts to the previous window only; under our shorter
   windows it oscillates between CRC and SECDED and keeps the SECDED
   latency tax more often than the paper's longer windows would.
3. **Operation-mode residency is ~24/70/6 (paper ~20/55/25).** Under our
   scaled error regime, end-to-end CRC retransmission stays cheaper than
   per-hop ECC latency except at the hottest routers, so the learned
   policy uses modes 2-4 less than the paper reports. This is the
   locally-optimal decision for our cost model, not a learning failure —
   the ablation study shows removing adaptive ECC entirely costs
   performance at elevated error rates.
4. **Fig. 15 is reported in absolute flits per 100k delivered** rather
   than normalized: at our scaled rates the static-SECDED baseline's own
   retransmission count is small, so the paper's "IntelliNoC reduces
   retransmissions 45% below baseline" inverts here — IntelliNoC's CRC
   windows trade cheap end-to-end retries for ECC latency/power, which
   is visible in the table. The reliability *outcome* (MTTF, failed
   packets) still favours IntelliNoC.
5. **MTTF gain is ~2.0x (paper 1.77x)** — slightly stronger because our
   aging model rewards power-gating's stress relief aggressively.
`

func main() {
	o, err := parseArgs(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	stopProfiles, err := telemetry.StartProfiles(o.cpuprofile, o.memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	err = run(ctx, o, os.Stdout, os.Stderr)
	stop()
	// Stop the profiles before os.Exit, which skips deferred calls.
	err = errors.Join(err, stopProfiles())
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
