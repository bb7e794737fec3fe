package datalink_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/fiber"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// sendPackets sends n packet-switched packets from CAB 0 to CAB 1 and runs
// the system until they have arrived or been lost, returning how many
// frames the system's store had to allocate for them.
func sendPackets(t *testing.T, sys *core.System, n int) int {
	t.Helper()
	made := sys.Net.Frames().Made()
	sys.CAB(0).Kernel.Spawn("tx", func(th *kernel.Thread) {
		for i := 0; i < n; i++ {
			if err := sys.CAB(0).DL.SendPacket(th, 1, pattern(200)); err != nil {
				t.Errorf("send: %v", err)
			}
		}
	})
	sys.Run()
	return sys.Net.Frames().Made() - made
}

func TestLostFrameIsNeverReused(t *testing.T) {
	sys := core.New(core.SingleHub(2))
	var got [][]byte
	collect(sys, 1, &got)
	_, toDst := sys.Net.CABLinks(1)
	toDst.SetDown(true)
	if made := sendPackets(t, sys, 1); made != 1 {
		t.Fatalf("lost send allocated %d frames, want 1", made)
	}
	toDst.SetDown(false)
	if made := sendPackets(t, sys, 1); made != 1 {
		t.Fatalf("send after a lost frame allocated %d frames, want 1 (the lost frame must not come back)", made)
	}
	if made := sendPackets(t, sys, 1); made != 0 {
		t.Fatalf("send after a delivered frame allocated %d frames, want 0", made)
	}
	if len(got) != 2 {
		t.Fatalf("%d packets delivered, want 2", len(got))
	}
}

func TestFramingErrorFrameIsReused(t *testing.T) {
	sys := core.New(core.SingleHub(2))
	var got [][]byte
	collect(sys, 1, &got)
	_, toDst := sys.Net.CABLinks(1)
	// Every item on the HUB->CAB 1 fiber is damaged: the close all always
	// as a framing error, the packet as one under this seed.
	toDst.SetErrorModel(fiber.ErrorModel{BitErrorRate: 1, Seed: 2})
	sendPackets(t, sys, 1)
	if st := sys.CAB(1).DL.Stats(); st.FramingErrors != 2 || st.PacketsReceived != 0 {
		t.Fatalf("stats %+v, want the packet and its close all discarded as framing errors", st)
	}
	toDst.SetErrorModel(fiber.ErrorModel{})
	if made := sendPackets(t, sys, 1); made != 0 {
		t.Fatalf("send after a discarded frame allocated %d frames, want 0", made)
	}
	if len(got) != 1 {
		t.Fatalf("%d packets delivered, want 1", len(got))
	}
}

// TestMulticastFrameIsReused: the HUB's copies of a multicast packet are
// tracked by its frame, so the frame comes back once every branch has
// consumed its copy, and each send after the first reuses it.
func TestMulticastFrameIsReused(t *testing.T) {
	sys := core.New(core.SingleHub(3))
	var got1, got2 [][]byte
	collect(sys, 1, &got1)
	collect(sys, 2, &got2)
	made := sys.Net.Frames().Made()
	sys.CAB(0).Kernel.Spawn("tx", func(th *kernel.Thread) {
		for i := 0; i < 3; i++ {
			if err := sys.CAB(0).DL.SendMulticastPacket(th, []int{1, 2}, pattern(200)); err != nil {
				t.Errorf("send: %v", err)
			}
			th.Sleep(sim.Millisecond) // each frame has arrived before the next
		}
	})
	sys.Run()
	if n := sys.Net.Frames().Made() - made; n != 1 {
		t.Fatalf("3 multicast sends allocated %d frames, want 1", n)
	}
	if len(got1) != 3 || len(got2) != 3 {
		t.Fatalf("delivered %d and %d packets, want 3 each", len(got1), len(got2))
	}
	for i := range 3 {
		if !bytes.Equal(got1[i], pattern(200)) || !bytes.Equal(got2[i], pattern(200)) {
			t.Fatalf("multicast %d arrived changed", i)
		}
	}
	if frames, bodies := sys.Net.Frames().Out(); frames != 0 || bodies != 0 {
		t.Fatalf("%d frames and %d bodies out after every branch consumed its copies", frames, bodies)
	}
}

// TestInterruptSendCopiesItsPayload: TrySendPacketInterrupt returns before
// the interrupt that builds the frame runs, so it copies an accepted payload
// at once. A caller that overwrites its buffer as soon as the call returns
// true must not change the packet on its way.
func TestInterruptSendCopiesItsPayload(t *testing.T) {
	sys := core.New(core.SingleHub(2))
	var got [][]byte
	collect(sys, 1, &got)
	buf := pattern(200)
	sys.Eng.At(0, func() {
		if !sys.CAB(0).DL.TrySendPacketInterrupt(1, buf, 0, nil) {
			t.Fatal("an idle datalink refused the interrupt-level send")
		}
		for i := range buf {
			buf[i] = 0xEE
		}
	})
	sys.Run()
	if len(got) != 1 || !bytes.Equal(got[0], pattern(200)) {
		t.Fatalf("delivered %d packets, the first changed: %v; want the payload as it was sent", len(got), len(got) == 1)
	}
}

func TestSteadyStreamReusesFrames(t *testing.T) {
	sys := core.New(core.SingleHub(2))
	var got [][]byte
	collect(sys, 1, &got)
	if made := sendPackets(t, sys, 10); made == 0 {
		t.Fatal("warm-up allocated no frames")
	}
	if made := sendPackets(t, sys, 100); made != 0 {
		t.Fatalf("100 sends after warm-up allocated %d frames, want 0", made)
	}
	if len(got) != 110 {
		t.Fatalf("%d packets delivered, want 110", len(got))
	}
}

// TestParkedSendKeepsItsRouteAcrossFlush: an interrupt-level send holds
// its route until its interrupt runs. A FlushRoutes in between, then a
// route to another CAB computed into the emptied cache, must leave the
// parked frame with the opens it was accepted with: the packet reaches
// CAB 1, not CAB 2.
func TestParkedSendKeepsItsRouteAcrossFlush(t *testing.T) {
	sys := core.New(core.SingleHub(3))
	var got1, got2 [][]byte
	collect(sys, 1, &got1)
	collect(sys, 2, &got2)
	dl := sys.CAB(0).DL
	sys.Eng.At(0, func() {
		if !dl.TrySendPacketInterrupt(1, pattern(200), 0, nil) {
			t.Fatal("an idle datalink refused the interrupt-level send")
		}
		dl.FlushRoutes()
		// The parked send holds the transmit mutex, so this send is
		// refused, but only after it has routed to CAB 2.
		if dl.TrySendPacketInterrupt(2, pattern(100), 0, nil) {
			t.Fatal("a busy datalink accepted a second interrupt-level send")
		}
		if routes, hops := dl.CachedRoutes(); routes != 1 || hops != 1 {
			t.Fatalf("cache holds %d routes of %d hops after the flush, want the route to CAB 2", routes, hops)
		}
	})
	sys.Run()
	if len(got1) != 1 || !bytes.Equal(got1[0], pattern(200)) || len(got2) != 0 {
		t.Fatalf("CAB 1 got %d packets and CAB 2 %d; want the parked packet at CAB 1 only", len(got1), len(got2))
	}
}
