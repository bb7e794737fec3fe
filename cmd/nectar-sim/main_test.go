package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/slo"
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
		{"-cabs", "17"},                 // more CABs than a HUB has ports
		{"-topo", "mesh", "-per", "15"}, // no ports left for the mesh links
	} {
		var stdout, stderr bytes.Buffer
		if rc := run(args, &stdout, &stderr); rc != 2 || stderr.Len() == 0 {
			t.Errorf("%v: exit status %d, stderr %q; want 2 and a diagnostic", args, rc, stderr.String())
		}
	}
}

// TestEmptyRequests runs request-response with empty requests: the echo
// server answers each with at most one byte, so every request completes.
func TestEmptyRequests(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if rc := run([]string{"-transport", "reqresp", "-size", "0", "-msgs", "3"}, &stdout, &stderr); rc != 0 {
		t.Fatalf("exit status %d, stderr:\n%s", rc, stderr.String())
	}
	if !strings.Contains(stdout.String(), "sent=3 failed=0") {
		t.Fatalf("want sent=3 failed=0 in:\n%s", stdout.String())
	}
}

// TestSLO drives -slo end to end. A run whose requests breach the bound
// fires the reqresp objective, and -slodump writes that alert's diagnosis
// bundle as JSON. A run with no sender (none asked for, or one CAB to send
// from) must still return: the armed engine ticks until it is stopped.
func TestSLO(t *testing.T) {
	dump := filepath.Join(t.TempDir(), "bundle.json")
	for _, args := range [][]string{
		{"-transport", "reqresp", "-senders", "3", "-msgs", "200", "-slo", "-slobound", "50us", "-slodump", dump},
		{"-senders", "0", "-slo", "-transport", "reqresp"},
		{"-cabs", "1", "-slo"},
	} {
		var stdout, stderr bytes.Buffer
		rc := make(chan int, 1)
		go func() { rc <- run(args, &stdout, &stderr) }()
		select {
		case got := <-rc:
			if got != 0 {
				t.Fatalf("%v: exit status %d, stderr:\n%s", args, got, stderr.String())
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("%v: still running after 20s", args)
		}
	}
	var b slo.Bundle
	file, err := os.ReadFile(dump)
	if err == nil {
		err = json.Unmarshal(file, &b)
	}
	if err != nil || b.Alert.Objective != "reqresp" {
		t.Fatalf("-slodump: bundle for objective %q (err %v), want reqresp", b.Alert.Objective, err)
	}
}
