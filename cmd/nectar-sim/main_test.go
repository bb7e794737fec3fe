package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run instead of comparing")

// TestChaosGolden pins the stdout and exit status of every chaos scenario
// as CI invokes it: each seeded run is byte-reproducible, so the delivery
// counts, completion times and recovery figures are exact.
func TestChaosGolden(t *testing.T) {
	for _, sc := range []string{"linkflap", "corruption", "portstuck", "crash", "storm", "overload", "comb", "random"} {
		t.Run(sc, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			dump := filepath.Join(t.TempDir(), "postmortem.txt")
			rc := run([]string{"-chaos", sc, "-seed", "7", "-msgs", "25", "-dump", dump}, &stdout, &stderr)
			if rc != 0 {
				t.Fatalf("exit status %d, stderr:\n%s", rc, stderr.String())
			}
			if pm, err := os.ReadFile(dump); err != nil || !strings.HasPrefix(string(pm), "flight recorder post-mortem") {
				t.Fatalf("-dump wrote %q (err %v)", pm, err)
			}
			if err := trace.Golden(filepath.Join("testdata", "chaos_"+sc+".golden"), stdout.Bytes(), *update); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBadArgumentsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-chaos", "bogus"},
		{"-topo", "bogus"},
		{"-transport", "bogus"},
		{"-nosuchflag"},
		{"-size", "-1"},
		{"-cabs", "0"},
		{"-topo", "line", "-hubs", "0"},
		{"-topo", "mesh", "-rows", "0"},
		{"-topo", "mesh", "-per", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if rc := run(args, &stdout, &stderr); rc != 2 || stderr.Len() == 0 {
			t.Errorf("%v: exit status %d, stderr %q; want 2 and a diagnostic", args, rc, stderr.String())
		}
	}
}
