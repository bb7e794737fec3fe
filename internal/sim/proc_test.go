package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// spawnAllocs is what starting and finishing a one-Sleep process costs once
// the engine has an idle proc: nothing, since the proc comes back from
// Engine.idle with its coroutine, its bound resume callback and its place
// in no map. A Proc or resume made per process shows up here (2), and so
// does a coroutine (8 with a goroutine and two channels per process, 17
// with a fresh iter.Pull per process).
const spawnAllocs = 0

func sleepOne(p *Proc) { p.Sleep(1) }

func TestSpawnAllocations(t *testing.T) {
	e := NewEngine()
	spawn := func() {
		e.Go("p", sleepOne)
		e.Run()
	}
	spawn() // warm the proc pool and the event pool
	if got := testing.AllocsPerRun(100, spawn); got > spawnAllocs {
		t.Fatalf("%v allocations per spawned process, want <= %d", got, spawnAllocs)
	}
}

// Wake resumes a parked process through the event queue: the waker runs on
// to its own next block first, and an event scheduled earlier for the same
// instant fires before the resume.
func TestParkWake(t *testing.T) {
	e := NewEngine()
	var order []string
	parked := e.Go("parked", func(p *Proc) {
		order = append(order, "park")
		p.Park()
		order = append(order, "resumed")
	})
	e.Go("waker", func(p *Proc) {
		p.Sleep(10)
		e.At(10, func() { order = append(order, "earlier event") })
		parked.Wake()
		order = append(order, "waker continues")
	})
	e.Run()
	want := []string{"park", "waker continues", "earlier event", "resumed"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order %q, want %q", order, want)
	}
	if e.Now() != 10 {
		t.Fatalf("resumed at %v, want 10", e.Now())
	}
}

func TestFinishedCoroutinesAreReused(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	first := e.Go("p", sleepOne)
	e.Run()
	for i := 0; i < 10000; i++ {
		if p := e.Go("p", sleepOne); p != first {
			t.Fatalf("process %d got a new proc, want the finished one back", i)
		}
		e.Run()
	}
	if e.Idle() != 1 || e.Live() != 0 {
		t.Fatalf("%d idle and %d live procs after 10001 sequential processes, want 1 and 0", e.Idle(), e.Live())
	}
	// The goroutine of the previous test may still be exiting when base is
	// read, so the count can end one below base+1, never above it.
	if got := runtime.NumGoroutine(); got > base+1 {
		t.Fatalf("%d goroutines after 10001 sequential processes, want at most %d (baseline %d + 1)", got, base+1, base)
	}
}

func TestProcPanicSurfacesFromRun(t *testing.T) {
	e := NewEngine()
	ok := e.Go("ok", func(p *Proc) {})
	boomErr := errors.New("boom")
	e.Go("boom", func(p *Proc) {
		p.Sleep(1)
		panic(boomErr)
	})
	got := func() (v any) {
		defer func() { v = recover() }()
		e.Run()
		return nil
	}()
	if got != boomErr {
		t.Fatalf("Run panicked with %v, want the body's own value %v", got, boomErr)
	}
	if len(e.idle) != 1 || e.idle[0] != ok {
		t.Fatalf("idle list %v: want only the process that returned", e.idle)
	}
}

// A reused proc takes its name, body and daemon bit from the new start,
// not from the process that finished on it: a daemon's proc reused by Go
// counts for deadlock again, so Run still ends cleanly when it returns.
func TestReusedProcForgetsItsDaemonBit(t *testing.T) {
	e := NewEngine()
	d := e.GoDaemon("d", func(p *Proc) {})
	e.Run()
	p := e.Go("p", sleepOne)
	if p != d {
		t.Fatal("Go did not reuse the finished daemon's proc")
	}
	if p.daemon || p.Name() != "p" {
		t.Fatalf("reused proc: daemon %v, name %q; want false, %q", p.daemon, p.Name(), "p")
	}
	e.Run() // a proc still counted as a daemon would leave procs at 1: deadlock
	s := NewSignal(e)
	e.Go("stuck", func(p *Proc) { s.Wait(p) })
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), " stuck") {
			t.Fatalf("Run recovered %v, want a deadlock naming stuck", r)
		}
	}()
	e.Run()
}

// The handle-validity rule: a *Proc is valid until its body returns. A
// resume that reaches a finished proc is a stale handle; it must fail at
// once, since after reuse it would run the next body early.
func TestResumeOfFinishedProcPanics(t *testing.T) {
	e := NewEngine()
	p := e.Go("gone", func(p *Proc) {})
	e.Run()
	p.Wake()
	defer func() {
		if r := recover(); fmt.Sprint(r) != "sim: resume of a finished process gone" {
			t.Fatalf("Run recovered %v, want the stale-resume panic", r)
		}
	}()
	e.Run()
}

// Run's deadlock diagnostic names the blocked processes in spawn order, so
// the message is the same on every run.
func TestDeadlockMessageInSpawnOrder(t *testing.T) {
	const want = "sim: deadlock: 3 process(es) blocked with no pending events: c a b"
	for i := 0; i < 20; i++ {
		e := NewEngine()
		s := NewSignal(e)
		e.GoDaemon("server", func(p *Proc) { s.Wait(p) })
		e.Go("early", func(p *Proc) {}) // finishes; its proc is reused by c
		e.Run()
		for _, name := range []string{"c", "a", "b"} {
			e.Go(name, func(p *Proc) { s.Wait(p) })
		}
		got := func() (v any) {
			defer func() { v = recover() }()
			e.Run()
			return nil
		}()
		if fmt.Sprint(got) != want {
			t.Fatalf("run %d: Run panicked with %q, want %q", i, got, want)
		}
	}
}
