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
// acks almost everything), so the heap must recycle dead slots cheaply.
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

func BenchmarkSignalHandoff(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	ping := NewSignal(e)
	pong := NewSignal(e)
	stop := false
	e.GoDaemon("a", func(p *Proc) {
		for !stop {
			pong.Signal()
			ping.Wait(p)
		}
	})
	e.GoDaemon("b", func(p *Proc) {
		for !stop {
			pong.Wait(p)
			ping.Signal()
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunUntil(e.Now() + 1)
	}
	stop = true
	ping.Broadcast()
	pong.Broadcast()
	e.RunUntil(e.Now() + 2)
}
