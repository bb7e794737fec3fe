package transport

import (
	"testing"

	"repro/internal/datalink"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/topo"
)

// controlBurst is how many control packets each round of
// TestControlQueueAllocations queues before the service thread drains them.
const controlBurst = 8

// TestControlQueueAllocations pins the service thread's control queue: a
// steady stream of stream acks from CAB 0 to CAB 1, every one queued for
// the service thread (the interrupt fast path is off), costs no allocation
// beyond its Encode wire, whether the plain FIFO or the overload path's
// classed DRR queue holds it. A queue that slides as it pops re-allocates
// its storage as the stream goes on, and shows up here.
func TestControlQueueAllocations(t *testing.T) {
	for _, tc := range []struct {
		name     string
		overload bool
	}{{"fifo", false}, {"drr", true}} {
		t.Run(tc.name, func(t *testing.T) {
			params := DefaultParams()
			params.DisableAckFastPath = true
			params.Overload = tc.overload
			eng := sim.NewEngine()
			net := topo.Single(2).Build(eng, nil)
			var tp [2]*Transport
			for i := range tp {
				k := kernel.New(net.Board(i))
				tp[i] = New(k, datalink.New(k, net, topo.NewRouter(net, topo.PolicyBFS)), params)
			}
			classes := [...]Class{ClassNormal, ClassBulk, ClassCritical}
			round := func() {
				for i := 0; i < controlBurst; i++ {
					h := &Header{
						Proto: ProtoStreamAck, Src: 0, Dst: 1, SrcBox: 3, DstBox: 7,
						MsgID: uint32(i), Seq: 1, Class: classes[i%len(classes)],
					}
					tp[0].enqueueControl(1, Encode(h, nil), nil)
				}
				eng.Run()
			}
			round() // warm the queues, the event pool, the frame store and the route cache
			if got := testing.AllocsPerRun(100, round); got > controlBurst {
				t.Fatalf("%v allocations per round of %d control packets, want <= %d (their wires)",
					got, controlBurst, controlBurst)
			}
			if got, want := tp[1].dl.Stats().PacketsReceived, int64(102*controlBurst); got != want {
				t.Fatalf("CAB 1 received %d packets, want %d", got, want)
			}
		})
	}
}
