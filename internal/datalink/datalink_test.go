package datalink_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/datalink"
	"repro/internal/fiber"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// collect wires a raw payload collector as CAB i's datalink receiver
// (replacing the transport installed by core).
func collect(sys *core.System, i int, out *[][]byte) {
	sys.CAB(i).DL.SetReceiver(func(p []byte, _ *trace.Span) {
		cp := make([]byte, len(p))
		copy(cp, p)
		*out = append(*out, cp)
	})
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i ^ (i >> 3))
	}
	return b
}

func TestSendPacketDelivers(t *testing.T) {
	sys := core.New(core.SingleHub(2))
	var got [][]byte
	collect(sys, 1, &got)
	data := pattern(500)
	sys.CAB(0).Kernel.Spawn("tx", func(th *kernel.Thread) {
		if err := sys.CAB(0).DL.SendPacket(th, 1, data); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	sys.Run()
	if len(got) != 1 || !bytes.Equal(got[0], data) {
		t.Fatalf("got %d packets", len(got))
	}
	st := sys.CAB(1).DL.Stats()
	if st.PacketsReceived != 1 || st.BytesReceived != 500 {
		t.Fatalf("stats %+v", st)
	}
}

func TestSendPacketTooLarge(t *testing.T) {
	sys := core.New(core.SingleHub(3))
	big := pattern(datalink.MaxPacketPayload + 1)
	var errUni, errMulti error
	sys.CAB(0).Kernel.Spawn("tx", func(th *kernel.Thread) {
		errUni = sys.CAB(0).DL.SendPacket(th, 1, big)
		errMulti = sys.CAB(0).DL.SendMulticastPacket(th, []int{1, 2}, big)
	})
	sys.Run()
	if errUni == nil || errMulti == nil {
		t.Fatalf("oversized packet-switched sends should fail: unicast %v, multicast %v", errUni, errMulti)
	}
	if st := sys.CAB(0).DL.Stats(); st.PacketsSent != 0 || st.McastsSent != 0 {
		t.Fatalf("rejected sends were counted: %+v", st)
	}
}

func TestSendCircuitLargePayload(t *testing.T) {
	sys := core.New(core.Line(3, 1))
	var got [][]byte
	collect(sys, 2, &got)
	data := pattern(100 * 1024) // 100 KB across 3 hubs
	sys.CAB(0).Kernel.Spawn("tx", func(th *kernel.Thread) {
		if err := sys.CAB(0).DL.SendCircuit(th, 2, data); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	sys.Run()
	if len(got) != 1 || !bytes.Equal(got[0], data) {
		t.Fatalf("100KB circuit transfer failed (%d packets)", len(got))
	}
	// All circuits torn down.
	for _, h := range sys.Net.Hubs() {
		if len(h.Connections()) != 0 {
			t.Fatalf("%s has lingering connections", h.Name())
		}
	}
}

func TestCircuitRecoversFromLostCommands(t *testing.T) {
	params := core.DefaultParams()
	// Heavy command loss: framing errors eat opens; the datalink's
	// timeout/teardown/retry must still get the data through (most of
	// the time; with 3 attempts and this rate at least one transfer
	// succeeds).
	params.Topo.Errors = fiber.ErrorModel{BitErrorRate: 5e-4, Seed: 5}
	sys := core.New(core.SingleHub(2), core.WithParams(params))
	var got [][]byte
	collect(sys, 1, &got)
	okCount := 0
	sys.CAB(0).Kernel.Spawn("tx", func(th *kernel.Thread) {
		for i := 0; i < 20; i++ {
			if err := sys.CAB(0).DL.SendCircuit(th, 1, pattern(2000)); err == nil {
				okCount++
			}
		}
	})
	sys.Run()
	if okCount == 0 {
		t.Fatal("no circuit send succeeded under command loss")
	}
	st := sys.CAB(0).DL.Stats()
	if st.OpenTimeouts == 0 {
		t.Log("warning: loss injection never hit an open (seed too kind)")
	}
	// At this error rate every 2000-byte payload is damaged somewhere
	// (detectably or silently) — integrity is the transport checksum's
	// job and is covered by the transport tests. Here we only verify the
	// lost-command recovery machinery made progress.
	t.Logf("sends ok=%d delivered=%d openTimeouts=%d", okCount, len(got), st.OpenTimeouts)
}

func TestMulticastCircuitDelivery(t *testing.T) {
	sys := core.New(core.Line(3, 2))
	// CABs: hub0: 0,1; hub1: 2,3; hub2: 4,5. Send 0 -> {2, 4, 5}.
	var g2, g4, g5 [][]byte
	collect(sys, 2, &g2)
	collect(sys, 4, &g4)
	collect(sys, 5, &g5)
	data := pattern(3000)
	sys.CAB(0).Kernel.Spawn("tx", func(th *kernel.Thread) {
		if err := sys.CAB(0).DL.SendMulticastCircuit(th, []int{2, 4, 5}, data); err != nil {
			t.Errorf("multicast: %v", err)
		}
	})
	sys.Run()
	for i, g := range [][][]byte{g2, g4, g5} {
		if len(g) != 1 || !bytes.Equal(g[0], data) {
			t.Fatalf("destination %d: got %d copies", i, len(g))
		}
	}
	if st := sys.CAB(0).DL.Stats(); st.PacketsSent != 1 {
		t.Fatalf("multicast sent %d packets, want 1 (single copy fans out)", st.PacketsSent)
	}
}

func TestMulticastPacketDelivery(t *testing.T) {
	sys := core.New(core.SingleHub(4), core.WithFlightRecorder())
	var g1, g2, g3 [][]byte
	collect(sys, 1, &g1)
	collect(sys, 2, &g2)
	collect(sys, 3, &g3)
	data := pattern(700)
	sys.CAB(0).Kernel.Spawn("tx", func(th *kernel.Thread) {
		if err := sys.CAB(0).DL.SendMulticastPacket(th, []int{1, 2, 3}, data); err != nil {
			t.Errorf("multicast: %v", err)
		}
	})
	sys.Run()
	for i, g := range [][][]byte{g1, g2, g3} {
		if len(g) != 1 || !bytes.Equal(g[0], data) {
			t.Fatalf("destination %d got %d copies", i+1, len(g))
		}
	}
	// A multicast is accounted like any packet-switched send — one packet,
	// its bytes — plus the multicast count, and noted with dst -1.
	st := sys.CAB(0).DL.Stats()
	if st.PacketsSent != 1 || st.BytesSent != int64(len(data)) || st.McastsSent != 1 {
		t.Fatalf("sender stats = %+v, want 1 packet of %d bytes, 1 multicast", st, len(data))
	}
	var sends []obs.Event
	for _, e := range sys.FR.Events() {
		if e.Kind == obs.FSend {
			sends = append(sends, e)
		}
	}
	if len(sends) != 1 || sends[0].Where != "cab0.dl" || sends[0].A != -1 || sends[0].B != int64(len(data)) {
		t.Fatalf("FSend notes = %+v, want one at cab0.dl with dst -1, %d bytes", sends, len(data))
	}
}

func TestFramingErrorCounted(t *testing.T) {
	params := core.DefaultParams()
	params.Topo.Errors = fiber.ErrorModel{BitErrorRate: 1e-3, Seed: 77}
	sys := core.New(core.SingleHub(2), core.WithParams(params))
	var got [][]byte
	collect(sys, 1, &got)
	sys.CAB(0).Kernel.Spawn("tx", func(th *kernel.Thread) {
		for i := 0; i < 50; i++ {
			sys.CAB(0).DL.SendPacket(th, 1, pattern(900))
		}
	})
	sys.Run()
	rx := sys.CAB(1).DL.Stats()
	if rx.FramingErrors == 0 {
		t.Skip("seed produced no framing errors at the CAB")
	}
	// Framing errors hit both packets and trailing close-all commands,
	// so the counters need not sum to the send count; but no more packets
	// than were sent may be delivered.
	if rx.PacketsReceived > 50 {
		t.Fatalf("received %d > sent 50", rx.PacketsReceived)
	}
}

func TestBackToBackPacketsKeepOrder(t *testing.T) {
	sys := core.New(core.Line(2, 1))
	var got [][]byte
	collect(sys, 1, &got)
	const n = 30
	sys.CAB(0).Kernel.Spawn("tx", func(th *kernel.Thread) {
		for i := 0; i < n; i++ {
			if err := sys.CAB(0).DL.SendPacket(th, 1, []byte{byte(i)}); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}
	})
	sys.Run()
	if len(got) != n {
		t.Fatalf("got %d packets, want %d", len(got), n)
	}
	for i, g := range got {
		if g[0] != byte(i) {
			t.Fatalf("packet %d out of order (payload %d)", i, g[0])
		}
	}
}

// Circuit-switched packets ignore the ready bit, so several can wait for
// their start-of-packet interrupts while the receiver's CPU is busy. The
// receive pipeline hands packets between its stages through FIFOs; each
// interrupt must still drain and deliver its own packet, in arrival order.
func TestQueuedReceiveInterruptsKeepOrder(t *testing.T) {
	sys := core.New(core.SingleHub(2))
	var got [][]byte
	collect(sys, 1, &got)
	// Hold the receiver's CPU at interrupt level past both arrivals.
	sys.CAB(1).Board.CPU.RunInterrupt(sim.Millisecond, nil)
	a, b := pattern(2000), pattern(1500)
	for i := range b {
		b[i] ^= 0xA5
	}
	sys.CAB(0).Kernel.Spawn("tx", func(th *kernel.Thread) {
		for _, p := range [][]byte{a, b} {
			if err := sys.CAB(0).DL.SendCircuit(th, 1, p); err != nil {
				t.Errorf("send: %v", err)
			}
		}
	})
	sys.Run()
	if len(got) != 2 || !bytes.Equal(got[0], a) || !bytes.Equal(got[1], b) {
		t.Fatalf("got %d packets, want the 2000- then the 1500-byte one intact", len(got))
	}
	if st := sys.CAB(1).DL.Stats(); st.PacketsReceived != 2 || st.BytesReceived != 3500 {
		t.Fatalf("stats %+v", st)
	}
}

func TestConcurrentSendersSerializeOnDatalink(t *testing.T) {
	// Two threads on the same CAB send interleaved circuits; the
	// datalink mutex must keep each frame's route state consistent.
	sys := core.New(core.SingleHub(3))
	var got1, got2 [][]byte
	collect(sys, 1, &got1)
	collect(sys, 2, &got2)
	tx := sys.CAB(0)
	for i := 0; i < 2; i++ {
		dst := i + 1
		tx.Kernel.Spawn("tx", func(th *kernel.Thread) {
			for j := 0; j < 10; j++ {
				if err := tx.DL.SendCircuit(th, dst, pattern(1500+dst)); err != nil {
					t.Errorf("dst %d: %v", dst, err)
				}
			}
		})
	}
	sys.Run()
	if len(got1) != 10 || len(got2) != 10 {
		t.Fatalf("got %d/%d, want 10/10", len(got1), len(got2))
	}
	for _, g := range got1 {
		if !bytes.Equal(g, pattern(1501)) {
			t.Fatal("cross-delivery: dst1 got wrong payload")
		}
	}
	for _, g := range got2 {
		if !bytes.Equal(g, pattern(1502)) {
			t.Fatal("cross-delivery: dst2 got wrong payload")
		}
	}
}

func TestHubLocksSerializeCABs(t *testing.T) {
	sys := core.New(core.SingleHub(3))
	const lock = 5
	inCS := 0
	maxCS := 0
	var order []int
	for i := 0; i < 3; i++ {
		st := sys.CAB(i)
		id := i
		st.Kernel.Spawn("locker", func(th *kernel.Thread) {
			if err := st.DL.AcquireHubLock(th, lock); err != nil {
				t.Errorf("cab %d acquire: %v", id, err)
				return
			}
			inCS++
			if inCS > maxCS {
				maxCS = inCS
			}
			order = append(order, id)
			th.Sleep(100 * sim.Microsecond) // critical section
			inCS--
			st.DL.ReleaseHubLock(th, lock)
		})
	}
	sys.Run()
	if maxCS != 1 {
		t.Fatalf("mutual exclusion violated: %d CABs in the critical section", maxCS)
	}
	if len(order) != 3 {
		t.Fatalf("only %d CABs entered", len(order))
	}
}

func TestTryAcquireHubLock(t *testing.T) {
	sys := core.New(core.SingleHub(2))
	a, b := sys.CAB(0), sys.CAB(1)
	var got bool
	var gotErr error
	a.Kernel.Spawn("holder", func(th *kernel.Thread) {
		if err := a.DL.AcquireHubLock(th, 1); err != nil {
			t.Errorf("acquire: %v", err)
		}
		th.Sleep(sim.Millisecond)
		a.DL.ReleaseHubLock(th, 1)
	})
	b.Kernel.Spawn("trier", func(th *kernel.Thread) {
		th.Sleep(100 * sim.Microsecond) // let the holder win
		got, gotErr = b.DL.TryAcquireHubLock(th, 1)
	})
	sys.Run()
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if got {
		t.Fatal("try-lock of a held lock succeeded")
	}
}

func TestHubLockAcrossTraffic(t *testing.T) {
	// Lock operations interleave with normal data traffic on the same
	// datalink without corrupting either.
	sys := core.New(core.SingleHub(2))
	var got [][]byte
	collect(sys, 1, &got)
	st := sys.CAB(0)
	st.Kernel.Spawn("worker", func(th *kernel.Thread) {
		for i := 0; i < 5; i++ {
			if err := st.DL.AcquireHubLock(th, 2); err != nil {
				t.Errorf("acquire: %v", err)
			}
			if err := st.DL.SendPacket(th, 1, pattern(100+i)); err != nil {
				t.Errorf("send: %v", err)
			}
			st.DL.ReleaseHubLock(th, 2)
		}
	})
	sys.Run()
	if len(got) != 5 {
		t.Fatalf("delivered %d packets, want 5", len(got))
	}
	for i, g := range got {
		if !bytes.Equal(g, pattern(100+i)) {
			t.Fatalf("packet %d corrupted", i)
		}
	}
}
