// Example throughput quantifies the paper's motivating claim (§1):
// partitioning quality translates into scalability. It partitions TPC-E
// with JECB, Schism, and the published Horticulture solution, then
// replays the test trace through the cluster simulator at increasing node
// counts — the better the partitioning, the closer the speedup curve is
// to linear.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/schism"
	"repro/internal/sim"
	"repro/internal/workloads"
	_ "repro/internal/workloads/all"
	"repro/internal/workloads/tpce"
)

func main() {
	b, _ := workloads.Get("tpce")
	d, err := b.Load(workloads.Config{Scale: 200, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	full := workloads.GenerateTrace(b, d, 4000, 2)
	tr, te := full.TrainTest(0.5, rand.New(rand.NewSource(3)))

	ks := []int{1, 2, 4, 8, 16}
	solvers := map[string]func(k int) (*partition.Solution, error){
		"jecb": func(k int) (*partition.Solution, error) {
			sol, _, err := core.Partition(context.Background(), core.Input{
				DB: d, Procedures: workloads.Procedures(b), Train: tr, Test: te,
			}, core.Options{K: k})
			return sol, err
		},
		"schism": func(k int) (*partition.Solution, error) {
			sol, _, err := schism.Partition(schism.Input{DB: d, Train: tr},
				schism.Options{K: k, Seed: 1})
			return sol, err
		},
		"horticulture": func(k int) (*partition.Solution, error) {
			return tpce.PublishedHorticulture(k)
		},
	}

	fmt.Println("TPC-E simulated speedup vs nodes (1.0 = single node):")
	fmt.Printf("%-14s", "nodes")
	for _, k := range ks {
		fmt.Printf("%8d", k)
	}
	fmt.Println()
	for _, name := range []string{"jecb", "schism", "horticulture"} {
		results, err := sim.Sweep(d, te, ks, solvers[name])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s", name)
		for _, r := range results {
			fmt.Printf("%7.2fx", r.Speedup)
		}
		fmt.Println()
	}
	fmt.Println("\nLocal transactions parallelize; distributed ones pay 2PC on every")
	fmt.Println("participant — the fewer of them a partitioner leaves, the closer")
	fmt.Println("the curve is to linear (the paper's §1 argument, quantified).")
}
