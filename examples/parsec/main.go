// PARSEC comparison: run all five NoC designs over one PARSEC workload
// model (default canneal, the heaviest) and print the Figs. 9-16 metrics
// for that benchmark, normalized to the SECDED baseline.
//
//	go run ./examples/parsec [benchmark]
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"intellinoc"
)

func main() {
	bench := "canneal"
	if len(os.Args) > 1 {
		bench = os.Args[1]
	}
	// Full 8x8 mesh. Shards: 4 steps it on four workers; results are
	// bit-identical to a single-shard run.
	sim := intellinoc.SimConfig{Seed: 7, Shards: 4}
	const packets = 40000

	policy, err := intellinoc.Pretrain(sim, 2, packets)
	if err != nil {
		log.Fatal(err)
	}

	type row struct {
		tech intellinoc.Technique
		res  intellinoc.Result
	}
	var rows []row
	for _, tech := range intellinoc.Techniques() {
		gen, err := intellinoc.ParsecWorkload(bench, sim, packets)
		if err != nil {
			log.Fatal(err)
		}
		out, err := intellinoc.Simulate(context.Background(), tech, sim, gen,
			intellinoc.WithPolicy(policy))
		if err != nil {
			log.Fatal(err)
		}
		rows = append(rows, row{tech, out.Result})
	}

	base := rows[0].res // SECDED
	baseSec := float64(base.Cycles) / 2e9
	fmt.Printf("benchmark: %s (%d packets, 8x8 mesh)\n\n", bench, packets)
	fmt.Printf("%-12s %9s %9s %9s %9s %9s %9s %9s\n",
		"design", "speedup", "latency", "Pstat", "Pdyn", "energyeff", "retrans", "MTTF")
	for _, r := range rows {
		sec := float64(r.res.Cycles) / 2e9
		norm := func(v, b float64) float64 { return v / b }
		retr := "-"
		if base.RetransmittedFlits() > 0 {
			retr = fmt.Sprintf("%9.3f", float64(r.res.RetransmittedFlits())/float64(base.RetransmittedFlits()))
		}
		fmt.Printf("%-12s %9.3f %9.3f %9.3f %9.3f %9.3f %9s %9.3f\n",
			r.tech,
			float64(base.Cycles)/float64(r.res.Cycles),
			norm(r.res.AvgLatency, base.AvgLatency),
			norm(r.res.StaticJoules/sec, base.StaticJoules/baseSec),
			norm(r.res.DynamicJoules/sec, base.DynamicJoules/baseSec),
			norm(r.res.EnergyEfficiency(), base.EnergyEfficiency()),
			retr,
			norm(r.res.MTTFSeconds, base.MTTFSeconds))
	}
	fmt.Println("\n(all columns normalized to SECDED = 1; speedup/energyeff/MTTF higher is better)")
	fmt.Printf("\nIntelliNoC mode breakdown: %s\n", rows[len(rows)-1].res.ModeBreakdown.String())
}
