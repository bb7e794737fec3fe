package main

import (
	"fmt"
	"strings"

	"repro/internal/exp"
)

// pins are the simulated figures the paper fixes. They are checked on every
// run, because a benchmark of a simulator that no longer models the paper's
// machine measures nothing: the error against each must be exactly 0.
var pins = []struct {
	exp, row string
	col      int
	want     string
}{
	{"E1", "connection setup + first byte", 2, "700ns"},
	{"E1", "established-circuit byte transfer", 2, "350ns"},
	{"E1", "controller grant interval", 2, "70ns"},
	{"E3", "CAB process to CAB process", 3, "28.38us"}, // the 64-byte datagram, goal < 30us
}

// fidelity runs experiments E1-E3 (HUB latency, fiber bandwidth, latency
// goals), and returns the printed block and what failed.
func fidelity() (block string, failures []string) {
	var b strings.Builder
	rows := make(map[string][][]string)
	for _, id := range []string{"E1", "E2", "E3"} {
		e, ok := exp.ByID(id)
		if !ok {
			failures = append(failures, "experiment "+id+" is not registered")
			continue
		}
		res := e.Run()
		if !res.Pass {
			failures = append(failures, fmt.Sprintf("experiment %s no longer reproduces the paper:\n%s", id, res))
		}
		for _, t := range res.Tables {
			rows[id] = append(rows[id], t.Rows()...)
			for _, r := range t.Rows() {
				fmt.Fprintf(&b, "  %s  %s\n", id, strings.Join(r, "  "))
			}
		}
	}
	for _, p := range pins {
		got := "(row missing)"
		for _, r := range rows[p.exp] {
			if r[0] == p.row && p.col < len(r) {
				got = r[p.col]
				break // the first matching row: E3 lists the 64-byte case first
			}
		}
		if got != p.want {
			failures = append(failures, fmt.Sprintf("%s %q: simulated %s, the paper pins %s", p.exp, p.row, got, p.want))
		}
	}
	fmt.Fprintf(&b, "  %d pins, %d off\n", len(pins), len(failures))
	return b.String(), failures
}
