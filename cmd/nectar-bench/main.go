// nectar-bench regenerates every table and figure of the paper's
// evaluation (the experiment index E1-E12/F1 of DESIGN.md) and prints
// paper-vs-measured tables.
//
// Usage:
//
//	nectar-bench            # run every experiment
//	nectar-bench E5 E11     # run selected experiments (by ID or name)
//	nectar-bench -list      # list experiments
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/exp"
)

func main() {
	list := flag.Bool("list", false, "list experiments and exit")
	full := flag.Bool("full", false, "run the full (slow) sweep ladders; the default is the short mode CI uses (S1 tops out at 1024 CABs)")
	flag.Parse()
	exp.S1Full = *full

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-5s %s\n", e.ID, e.Name)
		}
		return
	}

	selected := exp.All()
	if args := flag.Args(); len(args) > 0 {
		selected = nil
		for _, a := range args {
			e, ok := exp.ByID(a)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", a)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	failures := 0
	for _, e := range selected {
		res := e.Run()
		fmt.Println(res)
		if !res.Pass {
			failures++
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "%d experiment(s) did not reproduce the paper's shape\n", failures)
		os.Exit(1)
	}
	fmt.Println("all experiments reproduce the paper's claims")
}
