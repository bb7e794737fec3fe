package flow

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestTableAccountAndRecords(t *testing.T) {
	tb := NewTable(4, nil)
	tb.Account(0, 1, 2, 100, 10)
	tb.Account(0, 1, 2, 100, 5)
	tb.Account(2, 3, 1, 500, 0)
	tb.Account(0, -1, 2, 64, 0) // multicast
	tb.Retrans(0, 1, 2)

	if tb.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tb.Len())
	}
	recs := tb.Records()
	// Ordered by bytes descending: 500, 200, 64.
	if recs[0].Src != 2 || recs[0].Bytes != 500 {
		t.Fatalf("heaviest record = %+v", recs[0])
	}
	if recs[1].Frames != 2 || recs[1].Bytes != 200 || recs[1].Queue != 15 || recs[1].Retransmits != 1 {
		t.Fatalf("aggregated record = %+v", recs[1])
	}
	if recs[2].Dst != McastDst {
		t.Fatalf("multicast dst = %d, want McastDst", recs[2].Dst)
	}
}

func TestTableNilIsNoOp(t *testing.T) {
	var tb *Table
	tb.Account(0, 1, 2, 100, 0)
	tb.Retrans(0, 1, 2)
	if tb.Len() != 0 || tb.Records() != nil || tb.Top() != nil {
		t.Fatal("nil table should observe nothing")
	}
	var b bytes.Buffer
	tb.WriteProm(&b) // must not panic
	if tb.ProtoName(3) != "proto(3)" {
		t.Fatalf("nil ProtoName = %q", tb.ProtoName(3))
	}
}

func TestAccountZeroAllocSteadyState(t *testing.T) {
	tb := NewTable(4, nil)
	tb.Account(1, 2, 3, 128, 7) // first frame allocates the entry
	allocs := testing.AllocsPerRun(100, func() {
		tb.Account(1, 2, 3, 128, 7)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Account allocates %.1f per call, want 0", allocs)
	}
}

func TestTableCSVDeterministic(t *testing.T) {
	build := func() *Table {
		tb := NewTable(4, nil)
		tb.Account(3, 0, 1, 50, 0)
		tb.Account(1, 2, 2, 300, 9)
		tb.Account(0, 2, 1, 300, 1)
		return tb
	}
	a, b := build().CSV(), build().CSV()
	if !bytes.Equal(a, b) {
		t.Fatalf("CSV not deterministic:\n%s\nvs\n%s", a, b)
	}
	lines := strings.Split(strings.TrimSpace(string(a)), "\n")
	if lines[0] != "src,dst,proto,frames,bytes,retransmits,queue_ns" {
		t.Fatalf("header = %q", lines[0])
	}
	// Byte ties (two 300-byte flows) break by key: cab0 before cab1.
	if !strings.HasPrefix(lines[1], "cab0,") || !strings.HasPrefix(lines[2], "cab1,") {
		t.Fatalf("tie-break order wrong:\n%s", a)
	}
}

func TestTableTextAndProtoNamer(t *testing.T) {
	tb := NewTable(2, func(p byte) string {
		if p == 7 {
			return "lucky"
		}
		return "other"
	})
	tb.Account(0, 1, 7, 10, 0)
	txt := tb.Text(0)
	if !strings.Contains(txt, "lucky") {
		t.Fatalf("Text did not use the proto namer:\n%s", txt)
	}
	if !strings.Contains(txt, "heavy hitters") {
		t.Fatalf("Text missing sketch section:\n%s", txt)
	}
}

// Label values go out escaped per the exposition format: a protocol name
// carrying a quote, backslash and newline must not break the sample line.
func TestWritePromEscapesLabelValues(t *testing.T) {
	tb := NewTable(4, func(byte) string { return "a\"b\\c\nd" })
	tb.Account(2, 3, 1, 200, 0)
	var b bytes.Buffer
	tb.WriteProm(&b)
	want := `nectar_flow_bytes{src="cab2",dst="cab3",proto="a\"b\\c\nd"} 200`
	if !strings.Contains(b.String(), want+"\n") {
		t.Fatalf("exposition missing %s:\n%s", want, b.String())
	}
}

func TestQueueAccumulates(t *testing.T) {
	tb := NewTable(4, nil)
	tb.Account(0, 1, 1, 10, 3*sim.Microsecond)
	tb.Account(0, 1, 1, 10, 2*sim.Microsecond)
	if got := tb.Records()[0].Queue; got != 5*sim.Microsecond {
		t.Fatalf("queue = %v, want 5us", got)
	}
}
