package transport_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fiber"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// TestWindowInFlightIsTheStreamSum runs twelve concurrent 16 KB streams on
// a lossy fiber, so windows open, slide and collapse to 0 on RTO expiries,
// and compares the running sum WindowInFlight reads with the sum over the
// transport's streams at every sampler tick. CAB 0 crashes with streams in
// flight; once every sender has unwound, every sum reads 0.
func TestWindowInFlightIsTheStreamSum(t *testing.T) {
	const (
		cabs    = 4
		msgs    = 12
		crashAt = 3 * sim.Millisecond
	)
	p := core.DefaultParams()
	p.Topo.Errors = fiber.ErrorModel{BitErrorRate: 2e-5, Seed: 31}
	sys := core.New(core.SingleHub(cabs), core.WithParams(p), core.WithSampler())
	data := payload(16 << 10)
	senders, finished, failed0 := 0, 0, 0
	for src := 0; src < cabs; src++ {
		st := sys.CAB(src)
		mb := st.Kernel.NewMailbox("in", 1<<20)
		st.TP.Register(1, mb)
		st.Kernel.SpawnDaemon("drain", func(th *kernel.Thread) {
			for {
				mb.Release(mb.Get(th))
			}
		})
		for dst := 0; dst < cabs; dst++ {
			if dst == src {
				continue
			}
			senders++
			src, dst := src, dst
			st.Kernel.Spawn("sender", func(th *kernel.Thread) {
				defer func() { finished++ }()
				for i := 0; i < msgs; i++ {
					if err := st.TP.StreamSend(th, dst, 1, uint16(16+dst), data); err != nil {
						if src == 0 {
							failed0++
						}
						return
					}
				}
			})
		}
	}

	ticks, peak := 0, int64(0)
	sys.Sampler.Register("window-check", func() int64 {
		ticks++
		for i, c := range sys.CABs {
			got, want := c.TP.WindowInFlight(), c.TP.StreamWindowSum()
			if got != want {
				t.Fatalf("CAB %d at %v: WindowInFlight %d, streams sum to %d", i, sys.Eng.Now(), got, want)
			}
			peak = max(peak, got)
		}
		return 0
	})
	var atCrash int64
	sys.Eng.After(crashAt, func() {
		atCrash = sys.CAB(0).TP.WindowInFlight()
		sys.CAB(0).Crash()
	})
	sys.Eng.RunUntil(400 * sim.Millisecond)
	sys.StopTelemetry()

	if atCrash == 0 {
		t.Fatal("no stream of CAB 0 was in flight when it crashed")
	}
	if peak <= int64(p.Transport.Window) {
		t.Fatalf("peak window sum %d: the streams never overlapped", peak)
	}
	if finished != senders || failed0 != cabs-1 {
		t.Fatalf("%d of %d senders finished, %d of CAB 0's failed; want all, and all %d", finished, senders, failed0, cabs-1)
	}
	for i, c := range sys.CABs {
		if got, want := c.TP.WindowInFlight(), c.TP.StreamWindowSum(); got != 0 || want != 0 {
			t.Fatalf("CAB %d after every sender unwound: WindowInFlight %d, streams sum to %d; want 0", i, got, want)
		}
	}
	if sum := sys.CAB(1).TP.Stats().Retransmits + sys.CAB(2).TP.Stats().Retransmits; sum == 0 {
		t.Fatal("the lossy fiber forced no retransmission")
	}
	t.Logf("%d ticks, peak %d packets in flight, %d at the crash", ticks, peak, atCrash)
}
