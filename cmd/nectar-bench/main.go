// nectar-bench regenerates every table and figure of the paper's
// evaluation (the experiment index E1-E12/F1 of DESIGN.md) and prints
// paper-vs-measured tables.
//
// Usage:
//
//	nectar-bench            # run every experiment
//	nectar-bench E5 E11     # run selected experiments (by ID or name)
//	nectar-bench -list      # list experiments
//	nectar-bench -json E8   # machine-readable results on stdout
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/exp"
)

// jsonTable and jsonResult mirror exp.Result for machine consumption
// (dashboards, CI trend checks) without freezing the internal types.
type jsonTable struct {
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

type jsonResult struct {
	ID     string      `json:"id"`
	Title  string      `json:"title"`
	Pass   bool        `json:"pass"`
	Tables []jsonTable `json:"tables"`
	Notes  []string    `json:"notes,omitempty"`
}

func toJSON(r *exp.Result) jsonResult {
	out := jsonResult{ID: r.ID, Title: r.Title, Pass: r.Pass, Notes: r.Notes}
	for _, t := range r.Tables {
		out.Tables = append(out.Tables, jsonTable{
			Title:   t.Title(),
			Headers: t.Headers(),
			Rows:    t.Rows(),
		})
	}
	return out
}

func main() {
	list := flag.Bool("list", false, "list experiments and exit")
	asJSON := flag.Bool("json", false, "emit results as a JSON array on stdout")
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
	var results []jsonResult
	for _, e := range selected {
		res := e.Run()
		if *asJSON {
			results = append(results, toJSON(res))
		} else {
			fmt.Println(res)
		}
		if !res.Pass {
			failures++
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintln(os.Stderr, "encode:", err)
			os.Exit(2)
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "%d experiment(s) did not reproduce the paper's shape\n", failures)
		os.Exit(1)
	}
	if !*asJSON {
		fmt.Println("all experiments reproduce the paper's claims")
	}
}
