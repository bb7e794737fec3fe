package kernel

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cab"
	"repro/internal/sim"
	"repro/internal/trace"
)

var _ = cab.PageSize

func newKernel() (*sim.Engine, *Kernel) {
	eng := sim.NewEngine()
	board := cab.NewBoard(eng, 0, "cab0")
	return eng, New(board)
}

func TestThreadRunsWithSwitchCost(t *testing.T) {
	eng, k := newKernel()
	var started sim.Time
	k.Spawn("t1", func(th *Thread) { started = th.Proc().Now() })
	eng.Run()
	if started != 12*sim.Microsecond {
		t.Fatalf("thread started at %v, want 12us (context switch)", started)
	}
	if k.Switches() != 1 {
		t.Fatalf("switches = %d", k.Switches())
	}
}

func TestThreadsAreCoroutines(t *testing.T) {
	eng, k := newKernel()
	var order []string
	k.Spawn("a", func(th *Thread) {
		order = append(order, "a1")
		th.Compute(100 * sim.Microsecond)
		order = append(order, "a2") // non-preemptive: b has not run yet
		th.Yield()
		order = append(order, "a3")
	})
	k.Spawn("b", func(th *Thread) {
		order = append(order, "b1")
	})
	eng.Run()
	want := []string{"a1", "a2", "b1", "a3"}
	if len(order) != len(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestThreadSwitchLatency(t *testing.T) {
	// Measure ping-pong switch time between two threads: each handoff
	// should cost one context switch (the paper's 10-15us figure).
	eng, k := newKernel()
	pingSem := k.NewSem(0)
	pongSem := k.NewSem(0)
	var stamps []sim.Time
	const rounds = 10
	k.Spawn("ping", func(th *Thread) {
		for i := 0; i < rounds; i++ {
			stamps = append(stamps, th.Proc().Now())
			pongSem.V()
			pingSem.P(th)
		}
		pongSem.V()
	})
	k.Spawn("pong", func(th *Thread) {
		for i := 0; i < rounds; i++ {
			pongSem.P(th)
			pingSem.V()
		}
	})
	eng.Run()
	if len(stamps) != rounds {
		t.Fatalf("rounds = %d", len(stamps))
	}
	// Each full round trip costs 2 context switches = 24us.
	for i := 1; i < rounds; i++ {
		gap := stamps[i] - stamps[i-1]
		if gap != 24*sim.Microsecond {
			t.Fatalf("round-trip %d took %v, want 24us", i, gap)
		}
	}
}

func TestThreadSleep(t *testing.T) {
	eng, k := newKernel()
	var woke sim.Time
	k.Spawn("sleeper", func(th *Thread) {
		th.Sleep(100 * sim.Microsecond)
		woke = th.Proc().Now()
	})
	eng.Run()
	// 12us dispatch + 100us sleep + 12us re-dispatch.
	if woke != 124*sim.Microsecond {
		t.Fatalf("woke at %v, want 124us", woke)
	}
}

func TestCondSignalFIFO(t *testing.T) {
	eng, k := newKernel()
	var c Cond
	var woke []string
	for _, name := range []string{"x", "y", "z"} {
		name := name
		k.Spawn(name, func(th *Thread) {
			c.Wait(th)
			woke = append(woke, name)
		})
	}
	k.Spawn("signaler", func(th *Thread) {
		th.Sleep(sim.Millisecond)
		if c.Waiters() != 3 {
			t.Errorf("Waiters = %d, want 3", c.Waiters())
		}
		c.Signal()
		c.Signal()
		if c.Waiters() != 1 {
			t.Errorf("Waiters after two Signals = %d, want 1", c.Waiters())
		}
		c.Broadcast()
		c.Signal() // no waiters left: a no-op
	})
	eng.Run()
	if got := strings.Join(woke, ""); got != "xyz" {
		t.Fatalf("wake order %q, want xyz", got)
	}
	if c.Waiters() != 0 {
		t.Fatalf("Waiters after Broadcast = %d", c.Waiters())
	}
}

// Three threads wait on one Cond with timeouts; one of them — the head,
// the middle or the tail of the FIFO — times out, each case at its own
// instant. The survivors keep their order, a thread that starts waiting
// after the timeout queues behind them, and Broadcast wakes exactly the
// rest.
func TestCondWaitTimeout(t *testing.T) {
	const long = 10 * sim.Millisecond
	for _, tc := range []struct {
		name    string
		expires int      // which waiter times out
		after   sim.Time // its timeout
		order   string   // wake order of the survivors and the latecomer
	}{
		{"head", 0, 100 * sim.Microsecond, "bcL"},
		{"middle", 1, 250 * sim.Microsecond, "acL"},
		{"tail", 2, 400 * sim.Microsecond, "abL"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, k := newKernel()
			var c Cond
			var woke []byte
			got := map[byte]bool{}
			wait := func(name byte, d sim.Time) {
				k.Spawn(string(name), func(th *Thread) {
					got[name] = c.WaitTimeout(th, d)
					woke = append(woke, name)
				})
			}
			for i, name := range []byte("abc") {
				d := long
				if i == tc.expires {
					d = tc.after
				}
				wait(name, d)
			}
			expired := "abc"[tc.expires]
			k.Spawn("signaler", func(th *Thread) {
				th.Sleep(tc.after + 100*sim.Microsecond)
				if string(woke) != string(expired) || got[expired] {
					t.Errorf("after the timeout: woke %q (signaled %v), want %c timed out", woke, got[expired], expired)
				}
				if c.Waiters() != 2 {
					t.Errorf("Waiters after the timeout = %d, want 2", c.Waiters())
				}
				wait('L', long)
				th.Sleep(100 * sim.Microsecond)
				if c.Waiters() != 3 {
					t.Errorf("Waiters with the latecomer = %d, want 3", c.Waiters())
				}
				c.Signal()
				if c.Waiters() != 2 {
					t.Errorf("Waiters after Signal = %d, want 2", c.Waiters())
				}
				th.Sleep(100 * sim.Microsecond)
				if want := string(expired) + tc.order[:1]; string(woke) != want {
					t.Errorf("after Signal: woke %q, want %q", woke, want)
				}
				c.Broadcast()
				if c.Waiters() != 0 {
					t.Errorf("Waiters after Broadcast = %d, want 0", c.Waiters())
				}
			})
			eng.Run()
			if want := string(expired) + tc.order; string(woke) != want {
				t.Fatalf("wake order %q, want %q", woke, want)
			}
			for _, name := range []byte(tc.order) {
				if !got[name] {
					t.Errorf("%c reports a timeout, want signaled", name)
				}
			}
			if eng.Now() >= long {
				t.Errorf("run ended at %v: a canceled timeout fired", eng.Now())
			}
		})
	}
}

// A thread's Sleep and WaitTimeout share its own timer and waiter, so once
// the engine's event pool is warm a round of both allocates nothing.
func TestSleepAndWaitTimeoutAllocateNothing(t *testing.T) {
	eng, k := newKernel()
	var c Cond
	start := k.NewSem(0)
	rounds := 0
	k.SpawnDaemon("sleeper", func(th *Thread) {
		for {
			start.P(th)
			th.Sleep(10 * sim.Microsecond)
			if c.WaitTimeout(th, 10*sim.Microsecond) {
				t.Error("WaitTimeout with no signaler reports signaled")
			}
			rounds++
		}
	})
	round := func() {
		start.V()
		eng.Run()
	}
	round() // warm the engine's event pool
	if got := testing.AllocsPerRun(100, round); got != 0 {
		t.Fatalf("%v allocations per Sleep + WaitTimeout round, want 0", got)
	}
	if rounds != 102 {
		t.Fatalf("%d rounds, want 102", rounds)
	}
}

// spawnComputeAllocs is what spawning a thread that runs one Compute costs
// once the engine and the CPU are warm: nothing. The thread rides a
// finished sim.Proc back out of the engine's pool, with its coroutine, its
// resume and the Thread record whose callbacks (switchedIn, condTimedOut,
// readyFn) were bound when it was made. A body closure that captures costs
// the caller its own object (spawnClosureAllocs). A record made per spawn
// shows up here (7 before threads rode their procs), and so does a wait
// that allocates, such as a Signal per thread or per Compute.
const (
	spawnComputeAllocs = 0
	spawnClosureAllocs = 1
)

func computeOnce(th *Thread) { th.Compute(10 * sim.Microsecond) }

func TestSpawnComputeAllocations(t *testing.T) {
	eng, k := newKernel()
	d := 10 * sim.Microsecond
	for _, c := range []struct {
		name  string
		spawn func()
		want  float64
	}{
		{"static body", func() { k.Spawn("w", computeOnce) }, spawnComputeAllocs},
		{"capturing body", func() { k.Spawn("w", func(th *Thread) { th.Compute(d) }) }, spawnClosureAllocs},
	} {
		run := func() {
			c.spawn()
			eng.Run()
		}
		run() // warm the proc pool, the event pool and the CPU's queues
		if got := testing.AllocsPerRun(100, run); got > c.want {
			t.Fatalf("%s: %v allocations per thread spawn and Compute, want <= %v", c.name, got, c.want)
		}
	}
}

// The handle-validity rule for threads: a *Thread is valid until its body
// returns, after which a Spawn on any kernel of the engine may reuse it. A
// reused record starts clean: the new name and kernel, ready, no trace
// context and no pending timer, and its timer fires on the new board's
// bank.
func TestReusedThreadStartsClean(t *testing.T) {
	eng, ka := newKernel()
	kb := New(cab.NewBoard(eng, 1, "cab1"))
	tr := trace.NewTracer(eng, 0)
	first := ka.SpawnDaemon("first", func(th *Thread) {
		th.SetSpan(tr.Start(nil, trace.LayerKernel, "cab0", "left behind"))
		th.Sleep(sim.Microsecond)
	})
	eng.Run()
	if first.state != StateDone {
		t.Fatalf("first thread %v after its body returned, want done", first.state)
	}
	var inBody *trace.Span
	second := kb.Spawn("second", func(th *Thread) {
		inBody = th.Span()
		th.Sleep(sim.Microsecond)
	})
	if second != first {
		t.Fatal("Spawn made a new record, want the finished thread back")
	}
	if second.Name() != "second" || second.Kernel() != kb || second.state != StateReady ||
		second.Span() != nil || second.timer.Pending() || second.Proc().Name() != "second" {
		t.Fatalf("reused thread: name %q, own kernel %v, state %v, span %v, timer pending %v",
			second.Name(), second.Kernel() == kb, second.state, second.Span(), second.timer.Pending())
	}
	eng.Run() // a reused daemon bit would leave "second" out of deadlock accounting; a live one would deadlock here
	if inBody != nil {
		t.Fatalf("the reused thread's body saw span %v, want none", inBody)
	}
	if a, b := ka.Board().Timers.Expired(), kb.Board().Timers.Expired(); a != 1 || b != 1 {
		t.Fatalf("timers expired: cab0 %d, cab1 %d; want 1 each", a, b)
	}
	if live, daemons := ka.Threads(); live != 0 || daemons != 1 {
		t.Fatalf("cab0 threads: %d live, %d daemons; want 0, 1", live, daemons)
	}
}

// WaitUntil is the deadline form of WaitTimeout: a spurious signal (the
// predicate still false) resumes the wait against the same deadline, and a
// passed deadline returns false without blocking.
func TestCondWaitUntil(t *testing.T) {
	eng, k := newKernel()
	var c Cond
	ready := false
	var wakes int
	var gaveUpAt, pastAt sim.Time
	var pastOK bool
	k.Spawn("waiter", func(th *Thread) {
		deadline := eng.Now() + sim.Millisecond
		for !ready {
			if !c.WaitUntil(th, deadline) {
				break
			}
			wakes++
		}
		gaveUpAt = eng.Now()
		pastOK = c.WaitUntil(th, deadline)
		pastAt = eng.Now()
	})
	k.Spawn("noise", func(th *Thread) {
		th.Sleep(300 * sim.Microsecond)
		c.Signal() // predicate still false
	})
	eng.Run()
	if wakes != 1 {
		t.Fatalf("signaled wakes = %d, want 1", wakes)
	}
	// The deadline is absolute: the spurious wake does not extend it. The
	// waiter resumes one context switch after the timer fires.
	if lo := sim.Millisecond; gaveUpAt < lo || gaveUpAt > lo+50*sim.Microsecond {
		t.Fatalf("gave up at %v, want just after the 1ms deadline", gaveUpAt)
	}
	if pastOK || pastAt != gaveUpAt {
		t.Fatalf("WaitUntil past its deadline = %v at %v, want false without blocking (%v)", pastOK, pastAt, gaveUpAt)
	}
}

func TestMailboxPutGetFIFO(t *testing.T) {
	eng, k := newKernel()
	mb := k.NewMailbox("box", 64*1024)
	var got [][]byte
	k.Spawn("reader", func(th *Thread) {
		for i := 0; i < 3; i++ {
			msg := mb.Get(th)
			got = append(got, msg.Bytes())
			mb.Release(msg)
		}
	})
	k.Spawn("writer", func(th *Thread) {
		for i := 0; i < 3; i++ {
			th.Sleep(100 * sim.Microsecond)
			if _, err := mb.Put(th, []byte{byte(i), byte(i + 1)}, 7, 42); err != nil {
				t.Errorf("Put: %v", err)
			}
		}
	})
	eng.Run()
	if len(got) != 3 {
		t.Fatalf("got %d messages", len(got))
	}
	for i, b := range got {
		if !bytes.Equal(b, []byte{byte(i), byte(i + 1)}) {
			t.Fatalf("message %d = %v", i, b)
		}
	}
	if mb.UsedBytes() != 0 {
		t.Fatalf("UsedBytes = %d after releases", mb.UsedBytes())
	}
}

func TestMailboxCapacityBlocksWriters(t *testing.T) {
	eng, k := newKernel()
	mb := k.NewMailbox("small", 16)
	var secondPutAt sim.Time
	k.Spawn("writer", func(th *Thread) {
		if _, err := mb.Put(th, make([]byte, 16), 0, 0); err != nil {
			t.Errorf("Put: %v", err)
		}
		if _, err := mb.Put(th, make([]byte, 16), 0, 0); err != nil {
			t.Errorf("Put: %v", err)
		}
		secondPutAt = th.Proc().Now()
	})
	k.Spawn("reader", func(th *Thread) {
		th.Sleep(sim.Millisecond)
		msg := mb.Get(th)
		mb.Release(msg)
	})
	eng.Run()
	if secondPutAt < sim.Millisecond {
		t.Fatalf("second Put completed at %v, before reader drained", secondPutAt)
	}
}

func TestMailboxTryPutWhenFull(t *testing.T) {
	eng, k := newKernel()
	mb := k.NewMailbox("tiny", 8)
	eng.At(0, func() {
		if _, ok := mb.TryPut(make([]byte, 8), 0, 0); !ok {
			t.Error("first TryPut failed")
		}
		if _, ok := mb.TryPut(make([]byte, 8), 0, 0); ok {
			t.Error("TryPut into full mailbox succeeded")
		}
	})
	eng.Run()
	if mb.Len() != 1 {
		t.Fatalf("Len = %d", mb.Len())
	}
}

func TestMailboxOutOfOrderRead(t *testing.T) {
	eng, k := newKernel()
	mb := k.NewMailbox("box", 4096)
	var ids []uint64
	var byID *Message
	k.Spawn("writer", func(th *Thread) {
		for i := 0; i < 3; i++ {
			msg, err := mb.Put(th, []byte{byte(i)}, 0, uint32(i))
			if err != nil {
				t.Errorf("Put: %v", err)
				return
			}
			ids = append(ids, msg.ID)
		}
	})
	k.Spawn("reader", func(th *Thread) {
		th.Sleep(sim.Millisecond)
		byID = mb.GetByID(th, ids[1]) // read the middle message first
		first := mb.Get(th)
		if first.ID != ids[0] {
			t.Errorf("FIFO read got ID %d, want %d", first.ID, ids[0])
		}
		mb.Release(byID)
		mb.Release(first)
	})
	eng.Run()
	if byID == nil || byID.Tag != 1 {
		t.Fatalf("out-of-order read got %+v", byID)
	}
}

func TestMailboxGetMatch(t *testing.T) {
	eng, k := newKernel()
	mb := k.NewMailbox("box", 4096)
	var got *Message
	k.Spawn("server", func(th *Thread) {
		got = mb.GetMatch(th, func(m *Message) bool { return m.Tag == 99 })
	})
	k.Spawn("writer", func(th *Thread) {
		mb.Put(th, []byte("a"), 0, 1)
		mb.Put(th, []byte("b"), 0, 99)
	})
	eng.Run()
	if got == nil || got.Tag != 99 || string(got.Bytes()) != "b" {
		t.Fatalf("GetMatch got %+v", got)
	}
}

func TestMailboxReserveCommitAbort(t *testing.T) {
	eng, k := newKernel()
	mb := k.NewMailbox("box", 1024)
	eng.At(0, func() {
		msg, err := mb.Reserve(100)
		if err != nil {
			t.Errorf("Reserve: %v", err)
			return
		}
		// Reserved messages are invisible.
		if mb.Len() != 0 {
			t.Error("reserved message visible before commit")
		}
		if _, ok := mb.TryGet(); ok {
			t.Error("TryGet returned uncommitted message")
		}
		mb.Commit(msg)
		if mb.Len() != 1 {
			t.Error("committed message not visible")
		}
		// Abort path.
		msg2, _ := mb.Reserve(100)
		mb.Abort(msg2)
		if mb.UsedBytes() != 100 {
			t.Errorf("UsedBytes = %d after abort, want 100", mb.UsedBytes())
		}
	})
	eng.Run()
}

func TestMailboxGetTimeout(t *testing.T) {
	eng, k := newKernel()
	mb := k.NewMailbox("box", 1024)
	var ok1, ok2 bool
	k.Spawn("reader", func(th *Thread) {
		_, ok1 = mb.GetTimeout(th, 100*sim.Microsecond)
		_, ok2 = mb.GetTimeout(th, 10*sim.Millisecond)
	})
	k.Spawn("writer", func(th *Thread) {
		th.Sleep(2 * sim.Millisecond)
		mb.TryPut([]byte("x"), 0, 0)
	})
	eng.Run()
	if ok1 {
		t.Fatal("first GetTimeout should time out")
	}
	if !ok2 {
		t.Fatal("second GetTimeout should receive the message")
	}
}

func TestInterruptDeliversToThread(t *testing.T) {
	// The canonical CAB pattern: an interrupt (event context) TryPuts
	// into a mailbox, waking a waiting protocol thread.
	eng, k := newKernel()
	mb := k.NewMailbox("rx", 4096)
	var deliveredAt sim.Time
	k.Spawn("protocol", func(th *Thread) {
		msg := mb.Get(th)
		deliveredAt = th.Proc().Now()
		mb.Release(msg)
	})
	eng.At(500*sim.Microsecond, func() {
		k.Board().CPU.RunInterrupt(3*sim.Microsecond, func() {
			mb.TryPut([]byte("pkt"), 1, 0)
		})
	})
	eng.Run()
	// 500us + 3us handler + 12us context switch.
	want := 515 * sim.Microsecond
	if deliveredAt != want {
		t.Fatalf("delivered at %v, want %v", deliveredAt, want)
	}
}

func TestThreadStateString(t *testing.T) {
	for _, s := range []ThreadState{StateReady, StateRunning, StateBlocked, StateDone, ThreadState(9)} {
		if s.String() == "" {
			t.Fatal("empty state name")
		}
	}
}

func TestManyThreadsDeterministic(t *testing.T) {
	run := func() []string {
		eng, k := newKernel()
		var log []string
		for i := 0; i < 6; i++ {
			name := string(rune('a' + i))
			k.Spawn(name, func(th *Thread) {
				for j := 0; j < 3; j++ {
					th.Compute(sim.Time(10+i) * sim.Microsecond)
					log = append(log, name)
					th.Yield()
				}
			})
		}
		eng.Run()
		return log
	}
	a := run()
	b := run()
	if len(a) != len(b) || len(a) != 18 {
		t.Fatalf("lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %v vs %v", i, a, b)
		}
	}
}

func TestUserTaskIsolation(t *testing.T) {
	eng, k := newKernel()
	type taskState struct {
		addr cab.Addr
		task *UserTask
	}
	var a, b taskState
	ready := k.NewSem(0)
	var crossErr, ownErr error
	var kernelView []byte

	ta, err := k.SpawnUser("taskA", func(ut *UserTask) {
		a.task = ut
		addr, err := ut.Alloc(100)
		if err != nil {
			t.Errorf("alloc: %v", err)
			return
		}
		a.addr = addr
		if err := ut.Write(addr, []byte("private to A")); err != nil {
			t.Errorf("write: %v", err)
		}
		ready.V()
		ut.Sleep(10 * sim.Millisecond) // stay alive while B probes
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = k.SpawnUser("taskB", func(ut *UserTask) {
		b.task = ut
		ready.P(ut.Thread)
		// B reading its own fresh allocation works...
		addr, _ := ut.Alloc(50)
		b.addr = addr
		_, ownErr = ut.Read(addr, 50)
		// ...but reading A's memory faults.
		_, crossErr = ut.Read(a.addr, 16)
		// The kernel domain can always read (for diagnosis).
		kernelView, _ = k.Board().Mem.Read(cab.KernelDomain, a.addr, 12)
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()

	if ta.Domain() == b.task.Domain() || ta.Domain() == cab.KernelDomain {
		t.Fatalf("domains not distinct: %d vs %d", ta.Domain(), b.task.Domain())
	}
	if ownErr != nil {
		t.Fatalf("task reading its own memory faulted: %v", ownErr)
	}
	if crossErr == nil {
		t.Fatal("cross-task read did not fault")
	}
	if string(kernelView) != "private to A" {
		t.Fatalf("kernel view %q", kernelView)
	}
}

func TestUserTaskExitRevokes(t *testing.T) {
	eng, k := newKernel()
	var addr cab.Addr
	var afterExit error
	ut, _ := k.SpawnUser("task", func(ut *UserTask) {
		addr, _ = ut.Alloc(64)
		ut.Exit()
		_, afterExit = ut.Read(addr, 16)
	})
	eng.Run()
	if ut.Thread != nil {
		t.Fatal("a finished task still holds its thread, which the next Spawn may reuse")
	}
	if afterExit == nil {
		t.Fatal("read after Exit should fault")
	}
	if k.Board().Mem.Allocated() != 0 {
		t.Fatalf("memory leaked: %d bytes", k.Board().Mem.Allocated())
	}
	_ = addr
}

func TestUserTaskDomainExhaustion(t *testing.T) {
	eng, k := newKernel()
	spawned := 0
	var exhausted error
	for i := 0; i < cab.NumDomains; i++ {
		_, err := k.SpawnUser("t", func(ut *UserTask) {})
		if err != nil {
			exhausted = err
			break
		}
		spawned++
	}
	eng.Run()
	if exhausted == nil {
		t.Fatal("domain exhaustion never reported")
	}
	if spawned != cab.VMEDomain-1 {
		t.Fatalf("spawned %d user tasks, want %d", spawned, cab.VMEDomain-1)
	}
}
