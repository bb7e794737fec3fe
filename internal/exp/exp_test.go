package exp

import (
	"flag"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run instead of comparing")

// TestAllExperimentsReproduce runs the entire experiment suite and asserts
// every experiment reproduces the paper's shape — the repository-level
// regression test for the reproduction itself — and renders exactly
// testdata/<ID>.golden: the simulation is deterministic, so a refactor
// that moves any printed figure changed the modelled system
// (`go test ./internal/exp -update` re-captures after a declared change).
func TestAllExperimentsReproduce(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			res := e.Run()
			if res == nil {
				t.Fatal("nil result")
			}
			if !res.Pass {
				t.Fatalf("did not reproduce the paper's shape:\n%s", res)
			}
			if len(res.Tables) == 0 {
				t.Fatal("no tables produced")
			}
			if !strings.Contains(res.String(), res.ID) {
				t.Fatal("result render missing ID")
			}
			if err := trace.Golden(filepath.Join("testdata", e.ID+".golden"), []byte(res.String()), *update); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("e5"); !ok {
		t.Fatal("case-insensitive ID lookup failed")
	}
	if _, ok := ByID("vs-lan"); !ok {
		t.Fatal("name lookup failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("bogus lookup succeeded")
	}
}

// TestExperimentsDeterministic runs one timing-sensitive experiment twice
// and requires identical rendering — the determinism guarantee at the
// highest level of the stack.
func TestExperimentsDeterministic(t *testing.T) {
	a := E3LatencyGoals().String()
	b := E3LatencyGoals().String()
	if a != b {
		t.Fatalf("nondeterministic experiment output:\n%s\nvs\n%s", a, b)
	}
}

func TestHubSetupMeasurementExact(t *testing.T) {
	setup, transfer := hubSetupMeasurement(coreDefaults())
	if setup != 700 {
		t.Fatalf("setup = %v, want 700ns", setup)
	}
	if transfer != 350 {
		t.Fatalf("transfer = %v, want 350ns", transfer)
	}
}
