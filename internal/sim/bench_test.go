package sim

import (
	"math/rand"
	"testing"
)

// Wall-clock micro-benchmarks of the engine itself, for measuring while
// working on it (CI runs each once as a smoke test). The committed figure
// for the event loop is bench/'s sim.probe.event_ns.
//
// BenchmarkEventQueueDeep is the one whose queue looks like a workload's:
// about 1500 events pending, as on the 1024-CAB torus, with ties, HUB-cycle
// delays and far timers. The others keep one to a few dozen events pending,
// so they time the fixed cost of a schedule and a fire, and can rank a
// change to the queue differently from the workloads.

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
// acks almost everything), so Cancel must take events out of the queue
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

// BenchmarkEventQueueDeep fires events from a queue held at about 1500
// pending: 1436 callbacks that each schedule their successor, and 64
// retransmission timers of 1 ms. Delays come from a fixed-seed mix: 30 %
// at the same instant, 50 % multiples of the 70 ns HUB cycle up to 1.4 µs,
// and 20 % of 1 µs to 1 ms. One schedule in 20 re-arms a timer, canceling
// it first.
func BenchmarkEventQueueDeep(b *testing.B) {
	b.ReportAllocs()
	const depth, nTimers = 1500, 64
	rng := rand.New(rand.NewSource(1))
	delays := make([]Time, 4096)
	for i := range delays {
		switch r := rng.Intn(10); {
		case r < 3:
		case r < 8:
			delays[i] = 70 * Time(1+rng.Intn(20))
		default:
			delays[i] = Microsecond * Time(1+rng.Intn(1000))
		}
	}
	e := NewEngine()
	var (
		timers [nTimers]Event
		k      int
		left   = b.N
		fire   func()
	)
	expire := func() {}
	fire = func() {
		if left--; left <= 0 {
			b.StopTimer() // the rest drain untimed
			return
		}
		k++
		e.After(delays[k%len(delays)], fire)
		if k%19 == 0 {
			i := k / 19 % nTimers
			e.Cancel(timers[i])
			timers[i] = e.After(Millisecond, expire)
		}
	}
	for i := range timers {
		timers[i] = e.After(Millisecond, expire)
	}
	for i := nTimers; i < depth; i++ {
		e.After(delays[i], fire)
	}
	b.ResetTimer()
	e.Run()
}
