package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
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
	for _, c := range []struct {
		args []string
		diag string
	}{
		{[]string{"-mode", "bogus"}, `unknown mode "bogus"`},
		{[]string{"-size", "-1"}, "-size -1: must be at least 0"},
		{[]string{"-limit", "-1"}, "-limit -1: must be at least 1"},
		{[]string{"-limit", "0"}, "-limit 0: must be at least 1"},
	} {
		var stdout, stderr bytes.Buffer
		if rc := run(c.args, &stdout, &stderr); rc != 2 {
			t.Errorf("%v: exit status %d, want 2", c.args, rc)
		}
		if stdout.Len() != 0 || !bytes.Contains(stderr.Bytes(), []byte(c.diag)) {
			t.Errorf("%v: stdout %q, stderr %q", c.args, stdout.String(), stderr.String())
		}
	}
}

// TestMetricsAndChromeExport drives the two exports: -metrics prints the
// registry with a nonzero counter, and -out writes Chrome trace-event JSON
// that holds events and is byte-identical across two runs.
func TestMetricsAndChromeExport(t *testing.T) {
	var files [2][]byte
	for i := range files {
		out := filepath.Join(t.TempDir(), "t.json")
		var stdout, stderr bytes.Buffer
		if rc := run([]string{"-mode", "reqresp", "-metrics", "-out", out}, &stdout, &stderr); rc != 0 {
			t.Fatalf("exit status %d, stderr:\n%s", rc, stderr.String())
		}
		_, snap, ok := bytes.Cut(stdout.Bytes(), []byte("\nmetrics registry snapshot:\n"))
		if !ok || !regexp.MustCompile(`(?m)^  \S+ +[1-9][0-9]*$`).Match(snap) {
			t.Fatalf("no registry snapshot with a nonzero counter in:\n%s", stdout.String())
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(b, &doc); err != nil || len(doc.TraceEvents) == 0 {
			t.Fatalf("-out: %d trace events (err %v)", len(doc.TraceEvents), err)
		}
		files[i] = b
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatal("-out differs between two runs of the same command")
	}
}
