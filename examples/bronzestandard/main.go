// Bronze Standard (paper Sec. 4.2, Fig. 9): the full evaluation
// application — rigid registration of brain MRI pairs with four
// algorithms, assessed by the MultiTransfoTest synchronization processor —
// executed end to end on the simulated EGEE-style grid at a reduced scale.
//
// For the full Table 1 / Table 2 / Figure 10 reproduction at the paper's
// sizes, run: go run ./cmd/bronze
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/bronze"
	"repro/internal/core"
)

func main() {
	const pairs = 12 // one patient's acquisitions, the paper's smallest set
	fmt.Printf("Bronze Standard: %d image pairs (6 grid jobs per pair + 1 synchronization job)\n\n", pairs)

	for _, cfg := range bronze.Configurations() {
		p := bronze.DefaultParams()
		res, app, err := bronze.Run(pairs, cfg.Opts, p)
		if err != nil {
			log.Fatal(err)
		}
		st := app.Grid.Overheads()
		fmt.Printf("%-9s makespan %-10v grid overhead: mean %v sd %v (resubmissions %d)\n",
			cfg.Name, res.Makespan.Round(time.Second),
			st.Mean.Round(time.Second), st.SD.Round(time.Second), st.Resubmits)
	}

	// Show the accuracy outputs and the provenance depth of one of them.
	p := bronze.DefaultParams()
	res, _, err := bronze.Run(pairs, core.Options{
		DataParallelism: true, ServiceParallelism: true, JobGrouping: true,
	}, p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	for _, sink := range []string{"accuracy_translation", "accuracy_rotation"} {
		for _, v := range res.Outputs[sink] {
			fmt.Printf("%s = %s\n", sink, v)
		}
	}
	item := res.Items["accuracy_translation"][0]
	fmt.Printf("\naccuracy derives from %d source data (history depth %d)\n",
		len(item.Sources()), item.Depth())
}
