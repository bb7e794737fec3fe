package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
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

// TestLimitKeepsLastEvents pins the board's overflow: -limit 3 keeps the
// last three events of the circuit send, says how many earlier ones it no
// longer holds, and still counts every event, so its counts line is the
// one a run that keeps everything prints.
func TestLimitKeepsLastEvents(t *testing.T) {
	log := func(args ...string) (events, counts string) {
		var stdout, stderr bytes.Buffer
		if rc := run(append([]string{"-mode", "circuit"}, args...), &stdout, &stderr); rc != 0 {
			t.Fatalf("%v: exit status %d, stderr:\n%s", args, rc, stderr.String())
		}
		_, rest, _ := strings.Cut(stdout.String(), "instrumentation board event log (circuit send):\n")
		events, rest, _ = strings.Cut(rest, "\n\n")
		counts, _, _ = strings.Cut(rest, "\n")
		return events, counts
	}
	events, counts := log("-limit", "3")
	want := "     26.64us reply        hub1         cmd{op=4 hub=1 param=1} ok=true val=1\n" +
		"     40.33us packet-out   hub1.p1      packet[128B]\n" +
		"     50.73us conn-close   hub1         p0->p1\n" +
		"… 2 more events not retained (limit 3)"
	if events != want {
		t.Errorf("-limit 3 event log:\n%s\nwant:\n%s", events, want)
	}
	if _, all := log(); counts != all {
		t.Errorf("-limit 3 counts %q, want the full run's %q", counts, all)
	}
}
