package hub

import (
	"strings"
	"testing"

	"repro/internal/fiber"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestDescribe checks that every board event's packed operands render as
// the event-log text: the note sites and describe agree on the packing.
func TestDescribe(t *testing.T) {
	open := fiber.Command{Op: byte(OpOpenRetry), Hub: 3, Param: 15}
	comb := fiber.Command{Op: byte(OpCombSum), Hub: 1, Param: 2}
	o := open.String()
	for _, c := range []struct {
		kind obs.Kind
		a, b int64
		want string
	}{
		{obs.FCommand, cmdWord(open), 0, o},
		{obs.FFrameError, cmdWord(open), 0, "lost command " + o},
		{obs.FReply, cmdWord(open) | bit(true, 24), 255, o + " ok=true val=255"},
		{obs.FReply, cmdWord(comb), 1 << 40, comb.String() + " ok=false data=1099511627776"},
		{obs.FConnOpen, portPair(12, 15), int64(29640 * sim.Nanosecond), "p12->p15 at 29.64us"},
		{obs.FConnOpen, portPair(0, 1) | bit(true, 32), 700, "p0->p1 at 700ns (retried)"},
		{obs.FConnClose, portPair(4, 2), 0, "p4->p2"},
		{obs.FConnRetry, portPair(1, 2), int64(OpTestOpenRetry) | retryFailed<<8, "p1->p2 test-open-retry output failed"},
		{obs.FConnRetry, portPair(1, 2), int64(OpOpen) | retryBusy<<8, "p1->p2 open busy/not-ready"},
		{obs.FConnRetry, portPair(4, 1), retryAbandoned << 8, "p4->p1 abandoned (output reset)"},
		{obs.FPacketOut, 160, 0, "packet[160B]"},
		{obs.FPacketDrop, itemWord(&fiber.Item{Kind: fiber.KindPacket, Payload: make([]byte, 900)}), dropOverflow,
			"packet[900B]: input queue overflow"},
		{obs.FPacketDrop, itemWord(&fiber.Item{Kind: fiber.KindReply, Cmd: open, ReplyOK: true}), dropReset,
			"reply{" + o + " ok=true}: port reset"},
		{obs.FPacketDrop, itemWord(&fiber.Item{Kind: fiber.KindCommand, Cmd: open}), dropStuck,
			o + ": output register stuck"},
		{obs.FLock, 7, 3, "lock7 by p3"},
		{obs.FLock, 7 | 1<<8, 3, "lock7 by p3 (queued)"},
		{obs.FUnlock, 7, 0, "lock7"},
	} {
		if got := describe(obs.Event{Kind: c.kind, A: c.a, B: c.b}); got != c.want {
			t.Errorf("%v a=%#x b=%d: %q, want %q", c.kind, c.a, c.b, got, c.want)
		}
	}
}

// TestWriteLog renders a board that overflowed: it keeps the last events,
// says how many earlier ones it no longer holds, and counts every event. A
// board that kept everything has no such line, and a nil board writes
// nothing.
func TestWriteLog(t *testing.T) {
	eng := sim.NewEngine()
	board := obs.NewFlightRecorder(eng, 2)
	for i := range 5 {
		eng.At(sim.Time(10*(i+1)), func() { board.Note(obs.FConnOpen, "hub1", portPair(i, 9), int64(eng.Now())) })
	}
	eng.Run()
	var b strings.Builder
	WriteLog(&b, board)
	want := "        40ns conn-open    hub1         p3->p9 at 40ns\n" +
		"        50ns conn-open    hub1         p4->p9 at 50ns\n" +
		"… 3 more events not retained (limit 2)\n"
	if b.String() != want {
		t.Errorf("log:\n%s\nwant:\n%s", b.String(), want)
	}
	if n := board.Count(obs.FConnOpen); n != 5 {
		t.Errorf("Count(conn-open) = %d, want 5", n)
	}

	roomy := obs.NewFlightRecorder(eng, 10)
	roomy.Note(obs.FCommand, "hub1.p0", 0, 0)
	b.Reset()
	if WriteLog(&b, roomy); strings.Contains(b.String(), "not retained") {
		t.Errorf("a board that kept everything wrote:\n%s", b.String())
	}
	b.Reset()
	if WriteLog(&b, nil); b.Len() != 0 {
		t.Errorf("a nil board wrote %q", b.String())
	}
}
