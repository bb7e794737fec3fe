package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs/slo"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run instead of comparing")

// TestGolden pins the report in its three forms: every figure in it — flow
// bytes, queue peaks, the critical path of the p99 request, the alert
// stream — comes from one deterministic run. -out must receive the same
// bytes as stdout, and -slo's -slodump a JSON diagnosis bundle for the
// alerting reqresp objective.
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
			dir := t.TempDir()
			report, dump := filepath.Join(dir, "report"), filepath.Join(dir, "bundle.json")
			args := append(c.args, "-out", report)
			if c.name == "slo" {
				args = append(args, "-slodump", dump)
			}
			if rc := run(args, &stdout, &stderr); rc != 0 {
				t.Fatalf("exit status %d, stderr:\n%s", rc, stderr.String())
			}
			if file, err := os.ReadFile(report); err != nil || !bytes.Equal(file, stdout.Bytes()) {
				t.Fatalf("-out file differs from stdout (err %v)", err)
			}
			if c.name == "slo" {
				var b slo.Bundle
				file, err := os.ReadFile(dump)
				if err == nil {
					err = json.Unmarshal(file, &b)
				}
				if err != nil || b.Alert.Objective != "reqresp" {
					t.Fatalf("-slodump: bundle for objective %q (err %v), want reqresp", b.Alert.Objective, err)
				}
			}
			if err := trace.Golden(filepath.Join("testdata", c.name+".golden"), stdout.Bytes(), *update); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Too few CABs for the hot spot, and counts, sizes or a duration that
// cannot describe a run, are usage errors rather than panics or nonsense.
func TestTooFewCABsExits2(t *testing.T) {
	for _, args := range [][]string{
		{"-rows", "1", "-cols", "1", "-per", "2"},
		{"-rows", "0"},
		{"-per", "0"},
		{"-size", "-1"},
		{"-duration", "-1"},
	} {
		var stdout, stderr bytes.Buffer
		if rc := run(args, &stdout, &stderr); rc != 2 || stderr.Len() == 0 {
			t.Errorf("%v: exit status %d, stderr %q; want 2 and a diagnostic", args, rc, stderr.String())
		}
	}
}
