// Quickstart walks the paper's §3 running example end-to-end: the Figure 1
// database, the CustInfo stored procedure, and JECB discovering the
// join-extension partitioning by customer id — printing the red/blue
// partition assignment of Figure 1 at the end.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/fixture"
	"repro/internal/sqlparse"
	"repro/internal/value"
)

func main() {
	// The Figure 1 database: two customers, four accounts, eight trades,
	// eight holding summaries.
	d := fixture.CustInfoDB()
	fmt.Println("Loaded the paper's Figure 1 database:")
	for _, tbl := range []string{"CUSTOMER_ACCOUNT", "TRADE", "HOLDING_SUMMARY"} {
		fmt.Printf("  %-18s %d rows\n", tbl, d.Table(tbl).Len())
	}

	// The workload: CustInfo reads a customer's portfolio; TradeUpdate
	// writes it. JECB needs the SQL source of both.
	procs := []*sqlparse.Procedure{
		fixture.CustInfoProcedure(),
		fixture.TradeUpdateProcedure(),
	}
	full := fixture.MixedTrace(d, 400, 7)
	train, test := full.TrainTest(0.5, rand.New(rand.NewSource(7)))
	fmt.Printf("\nTraced %d transactions (%d train / %d test)\n",
		full.Len(), train.Len(), test.Len())

	// Run JECB for two partitions.
	sol, rep, err := core.Partition(context.Background(), core.Input{
		DB: d, Procedures: procs, Train: train, Test: test,
	}, core.Options{K: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n" + rep.String())

	// Score it: the join-extension solution makes every transaction
	// single-partition.
	r, err := eval.Evaluate(d, sol, test)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("test trace: %s\n", r)

	// Show the Figure 1 coloring: where each trade lands.
	fmt.Println("\nTRADE partition assignment (compare with Figure 1's red/blue):")
	ts := sol.Table("TRADE")
	nav, err := d.Compile(ts.Path)
	if err != nil {
		log.Fatal(err)
	}
	view := d.View()
	defer view.Close()
	for tid := int64(1); tid <= 8; tid++ {
		v, ok := view.FromKey(nav, value.MakeKey(value.NewInt(tid)))
		if !ok {
			log.Fatalf("trade %d: join path dangles", tid)
		}
		fmt.Printf("  T_ID=%d -> customer %s -> partition %d\n",
			tid, v, ts.Mapper.Map(v))
	}
}
