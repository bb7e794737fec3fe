package main

import (
	"bytes"
	"flag"
	"path/filepath"
	"testing"

	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run instead of comparing")

// TestGolden pins the stdout and exit status of the command in each of its
// four modes: the trace of a deterministic simulation is itself
// deterministic, down to the nanosecond of every logged event.
func TestGolden(t *testing.T) {
	for _, mode := range []string{"reqresp", "circuit", "packet", "multicast"} {
		t.Run(mode, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if rc := run([]string{"-mode", mode}, &stdout, &stderr); rc != 0 {
				t.Fatalf("exit status %d, stderr:\n%s", rc, stderr.String())
			}
			if err := trace.Golden(filepath.Join("testdata", mode+".golden"), stdout.Bytes(), *update); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestUnknownModeExits2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if rc := run([]string{"-mode", "bogus"}, &stdout, &stderr); rc != 2 {
		t.Fatalf("exit status %d, want 2", rc)
	}
	if stdout.Len() != 0 || !bytes.Contains(stderr.Bytes(), []byte(`unknown mode "bogus"`)) {
		t.Fatalf("stdout %q, stderr %q", stdout.String(), stderr.String())
	}
}
