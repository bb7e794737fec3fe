package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run instead of comparing")

// TestGolden pins the report in the three forms CI archives: every figure
// in it — flow bytes, queue peaks, the critical path of the p99 request,
// the alert stream — comes from one deterministic run. -out must receive
// the same bytes as stdout.
func TestGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
	}{
		{"text", nil},
		{"slo", []string{"-slo"}},
		{"json", []string{"-json"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			report := filepath.Join(t.TempDir(), "report")
			if rc := run(append(c.args, "-out", report), &stdout, &stderr); rc != 0 {
				t.Fatalf("exit status %d, stderr:\n%s", rc, stderr.String())
			}
			if file, err := os.ReadFile(report); err != nil || !bytes.Equal(file, stdout.Bytes()) {
				t.Fatalf("-out file differs from stdout (err %v)", err)
			}
			if err := trace.Golden(filepath.Join("testdata", c.name+".golden"), stdout.Bytes(), *update); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestTooFewCABsExits2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if rc := run([]string{"-rows", "1", "-cols", "1", "-per", "2"}, &stdout, &stderr); rc != 2 || stderr.Len() == 0 {
		t.Fatalf("exit status %d, stderr %q; want 2 and a diagnostic", rc, stderr.String())
	}
}
