package hub

import (
	"testing"

	"repro/internal/sim"
)

// darkForwardAllocs is what one test-open, one forwarded packet and one
// close-all cost on a HUB with no instrumentation board. Four allocations
// remain, none on the recorder's account: the grant's reply event (a
// closure at the grant's completion time), the reply item, the closure
// delivering it to the CAB, and the test CAB's own drain event (a method
// value it schedules). Its call sites used to box their operands (the
// command, the completion time) to the heap before Record saw its nil
// receiver, three more per round; each site now checks for the recorder
// first. The input chain schedules a bound step and a unicast item travels
// on without a clone (19 before that). Lower the figure when the forwarding
// path gets cheaper still.
const darkForwardAllocs = 4

func TestNilRecorderCostsNoAllocations(t *testing.T) {
	eng := sim.NewEngine()
	h := New(eng, 0, 4, nil)
	a := attachCAB(eng, h, 0, "cabA")
	b := attachCAB(eng, h, 1, "cabB")
	open, pkt, closeAll := a.cmd(OpTestOpenRetryReply, 0, 1), packet(64), a.cmd(OpCloseAll, 0xFF, 0)
	round := func() {
		a.send(open, pkt, closeAll)
		eng.Run()
		// Keep the test CABs' own logs from growing (and allocating).
		a.replies, a.repTimes = a.replies[:0], a.repTimes[:0]
		b.packets, b.pktTimes = b.packets[:0], b.pktTimes[:0]
	}
	round() // warm the engine's event pool and the logs' backing arrays
	if got := testing.AllocsPerRun(100, round); got > darkForwardAllocs {
		t.Fatalf("%v allocations per test-open + forwarded packet + close-all with a nil recorder, want <= %d",
			got, darkForwardAllocs)
	}
	if len(b.packets) != 0 || h.CheckInvariants() != nil || len(h.Connections()) != 0 {
		t.Fatalf("round left state behind: %d packets, %v", len(b.packets), h.CheckInvariants())
	}
}
