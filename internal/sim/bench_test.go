package sim

import "testing"

// Wall-clock micro-benchmarks of the engine itself, for measuring while
// working on it (CI runs each once as a smoke test). The committed figure
// for the event loop is bench/'s sim.probe.event_ns.

func BenchmarkEventScheduleAndFire(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	for i := 0; i < b.N; i++ {
		e.After(1, func() {})
		e.RunUntil(e.Now() + 1)
	}
}

func BenchmarkEventHeapChurn(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Keep ~64 events in flight.
		for j := 0; j < 64; j++ {
			e.After(Time(j%7+1), func() {})
		}
		e.RunUntil(e.Now() + 8)
	}
	e.Run()
}

// BenchmarkEventChurnCancelHeavy models a retransmission-timer workload:
// most scheduled events are canceled before they fire (a healthy network
// acks almost everything), so Cancel must take events out of the heap
// cheaply.
func BenchmarkEventChurnCancelHeavy(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	var timers [64]Event
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			timers[j] = e.After(Time(j%13+2), func() {})
		}
		for j := 0; j < 64; j++ {
			if j%8 != 0 { // 7 of 8 timers canceled before expiry
				e.Cancel(timers[j])
			}
		}
		e.RunUntil(e.Now() + 4)
	}
	e.Run()
}

func BenchmarkProcSleepWake(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	stop := false
	e.GoDaemon("sleeper", func(p *Proc) {
		for !stop {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunUntil(e.Now() + 1)
	}
	stop = true
	e.RunUntil(e.Now() + 2)
}

// BenchmarkSignalHandoff times one Signal round trip between two procs.
func BenchmarkSignalHandoff(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	ping, pong := NewSignal(e), NewSignal(e)
	// pong starts first, so it is already waiting when ping signals.
	e.GoDaemon("pong", func(p *Proc) {
		for {
			pong.Wait(p)
			ping.Signal()
		}
	})
	e.Go("ping", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			pong.Signal()
			ping.Wait(p)
		}
	})
	b.ResetTimer()
	e.Run()
	// Two start events, then one wake-up each way per round trip.
	if got, want := e.Executed(), uint64(2+2*b.N); got != want {
		b.Fatalf("%d events ran, want %d: a signal was lost", got, want)
	}
}
