package cab

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/fiber"
	"repro/internal/sim"
)

func TestCPUSequentialJobs(t *testing.T) {
	eng := sim.NewEngine()
	cpu := NewCPU(eng)
	var done []sim.Time
	eng.At(0, func() {
		cpu.Submit(PrioThread, 100, func() { done = append(done, eng.Now()) })
		cpu.Submit(PrioThread, 50, func() { done = append(done, eng.Now()) })
	})
	eng.Run()
	if len(done) != 2 || done[0] != 100 || done[1] != 150 {
		t.Fatalf("completions %v, want [100 150]", done)
	}
	if cpu.BusyTime() != 150 {
		t.Fatalf("BusyTime = %v", cpu.BusyTime())
	}
	if !cpu.Idle() {
		t.Fatal("CPU should be idle")
	}
}

func TestCPUInterruptPreemptsThread(t *testing.T) {
	eng := sim.NewEngine()
	cpu := NewCPU(eng)
	var thDone, queuedDone, intDone sim.Time
	eng.At(0, func() {
		cpu.Submit(PrioThread, 1000, func() { thDone = eng.Now() })
		cpu.Submit(PrioThread, 400, func() { queuedDone = eng.Now() })
	})
	eng.At(300, func() {
		cpu.Submit(PrioInterrupt, 200, func() { intDone = eng.Now() })
	})
	eng.Run()
	if intDone != 500 {
		t.Fatalf("interrupt done at %v, want 500 (runs immediately)", intDone)
	}
	// Thread had 700 remaining at preemption; it goes back ahead of the
	// queued job and resumes at 500 -> 1200.
	if thDone != 1200 {
		t.Fatalf("preempted thread done at %v, want 1200 (stretched by interrupt, resumed first)", thDone)
	}
	if queuedDone != 1600 {
		t.Fatalf("queued thread done at %v, want 1600 (after the preempted one)", queuedDone)
	}
	if cpu.BusyTime() != 1600 {
		t.Fatalf("BusyTime = %v, want 1600 (no idle gaps)", cpu.BusyTime())
	}
}

func TestCPUInterruptsDoNotPreemptEachOther(t *testing.T) {
	eng := sim.NewEngine()
	cpu := NewCPU(eng)
	var order []string
	eng.At(0, func() {
		cpu.Submit(PrioInterrupt, 100, func() { order = append(order, "i1") })
	})
	eng.At(10, func() {
		cpu.Submit(PrioInterrupt, 100, func() { order = append(order, "i2") })
	})
	eng.Run()
	if len(order) != 2 || order[0] != "i1" || order[1] != "i2" {
		t.Fatalf("order %v", order)
	}
	if eng.Now() != 200 {
		t.Fatalf("end %v, want 200 (FIFO, no nesting)", eng.Now())
	}
}

func TestCPUComputeFromProc(t *testing.T) {
	eng := sim.NewEngine()
	cpu := NewCPU(eng)
	var at sim.Time
	eng.Go("worker", func(p *sim.Proc) {
		cpu.Compute(p, 500)
		at = p.Now()
	})
	eng.At(100, func() { cpu.Submit(PrioInterrupt, 50, nil) })
	eng.Run()
	if at != 550 {
		t.Fatalf("compute finished at %v, want 550 (500 + 50 stolen)", at)
	}
}

func TestMemoryAllocFree(t *testing.T) {
	m := NewMemory()
	a1, err := m.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := m.Alloc(200)
	if err != nil {
		t.Fatal(err)
	}
	if a1 == a2 {
		t.Fatal("overlapping allocations")
	}
	if m.Allocated() != 104+200 { // rounded to 8
		t.Fatalf("Allocated = %d", m.Allocated())
	}
	m.Free(a1, 100)
	m.Free(a2, 200)
	if m.Allocated() != 0 {
		t.Fatalf("Allocated after frees = %d", m.Allocated())
	}
	if m.FreeBytes() != DataSize {
		t.Fatalf("FreeBytes = %d, want all of data memory", m.FreeBytes())
	}
	if err := m.CheckFreeList(); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryExhaustion(t *testing.T) {
	m := NewMemory()
	if _, err := m.Alloc(DataSize + 1); err == nil {
		t.Fatal("oversized allocation should fail")
	}
	a, err := m.Alloc(DataSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Alloc(8); err == nil {
		t.Fatal("allocation from empty pool should fail")
	}
	m.Free(a, DataSize)
	if _, err := m.Alloc(8); err != nil {
		t.Fatal("allocation after free should succeed")
	}
}

// Property: any interleaving of allocs and frees keeps the free list
// sorted, coalesced, and conserves total bytes.
func TestMemoryAllocatorProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		m := NewMemory()
		type block struct {
			a Addr
			n int
		}
		var live []block
		for i, s := range sizes {
			n := int(s)%4096 + 1
			if i%3 == 2 && len(live) > 0 {
				// Free a pseudo-randomly chosen live block.
				k := i % len(live)
				m.Free(live[k].a, live[k].n)
				live = append(live[:k], live[k+1:]...)
			} else {
				a, err := m.Alloc(n)
				if err != nil {
					continue
				}
				live = append(live, block{a, n})
			}
			if m.CheckFreeList() != nil {
				return false
			}
		}
		for _, b := range live {
			m.Free(b.a, b.n)
		}
		return m.FreeBytes() == DataSize && m.CheckFreeList() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryProtectionDomains(t *testing.T) {
	m := NewMemory()
	a, _ := m.Alloc(2048)
	userDomain := 5
	// Kernel can always access.
	if err := m.Check(KernelDomain, a, 2048, PermRW); err != nil {
		t.Fatal(err)
	}
	// User domain denied until granted.
	if err := m.Check(userDomain, a, 2048, PermRead); err == nil {
		t.Fatal("unprotected access should fault")
	}
	m.SetPerm(userDomain, a, 2048, PermRead)
	if err := m.Check(userDomain, a, 2048, PermRead); err != nil {
		t.Fatal(err)
	}
	// Read granted but not write.
	if err := m.Check(userDomain, a, 2048, PermWrite); err == nil {
		t.Fatal("write without permission should fault")
	}
	// VME domain is separate.
	if err := m.Check(VMEDomain, a, 16, PermRead); err == nil {
		t.Fatal("VME domain should not inherit user perms")
	}
	if m.Faults() != 3 {
		t.Fatalf("Faults = %d, want 3", m.Faults())
	}
}

func TestMemoryPageGranularity(t *testing.T) {
	m := NewMemory()
	// Grant exactly one page; access crossing into the next page faults.
	base := Addr(DataBase)
	m.SetPerm(7, base, PageSize, PermRW)
	if err := m.Check(7, base, PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := m.Check(7, base+PageSize-8, 16, PermRW); err == nil {
		t.Fatal("access crossing page boundary should fault")
	}
}

func TestMemoryReadWrite(t *testing.T) {
	m := NewMemory()
	a, _ := m.Alloc(64)
	msg := []byte("nectar message body")
	if err := m.Write(KernelDomain, a, msg); err != nil {
		t.Fatal(err)
	}
	got, err := m.Read(KernelDomain, a, len(msg))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("read back %q", got)
	}
	// Out-of-region access fails rather than panics.
	if err := m.Write(KernelDomain, Addr(ProgBase), msg); err == nil {
		t.Fatal("write outside data region should fail")
	}
}

func TestChecksum(t *testing.T) {
	if Checksum(nil) != 0xFFFF {
		t.Fatalf("empty checksum = %#x", Checksum(nil))
	}
	msg := []byte("the quick brown fox")
	c := Checksum(msg)
	if Checksum(msg) != c {
		t.Fatal("checksum does not verify")
	}
	// Any single bit flip is detected.
	for i := range msg {
		for bit := uint(0); bit < 8; bit++ {
			msg[i] ^= 1 << bit
			if Checksum(msg) == c {
				t.Fatalf("bit flip at byte %d bit %d undetected", i, bit)
			}
			msg[i] ^= 1 << bit
		}
	}
}

func TestChecksumOddLength(t *testing.T) {
	a := Checksum([]byte{1, 2, 3})
	b := Checksum([]byte{1, 2, 3, 0})
	if a != b {
		t.Fatalf("odd-length padding mismatch: %#x vs %#x", a, b)
	}
}

// Property: checksum detects any single-byte corruption.
func TestChecksumProperty(t *testing.T) {
	f := func(data []byte, idx uint16, flip byte) bool {
		if len(data) == 0 || flip == 0 {
			return true
		}
		c := Checksum(data)
		i := int(idx) % len(data)
		data[i] ^= flip
		ok := Checksum(data) != c
		data[i] ^= flip
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDMAChannelsIndependent(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDMA(eng)
	var tOut, tIn, tVME sim.Time
	eng.At(0, func() {
		d.Transfer(ChanFiberOut, 1000, func() { tOut = eng.Now() })
		d.Transfer(ChanFiberIn, 1000, func() { tIn = eng.Now() })
		d.Transfer(ChanVME, 1000, func() { tVME = eng.Now() })
	})
	eng.Run()
	if tOut != 80_000 {
		t.Fatalf("fiber-out transfer at %v, want 80us (12.5 MB/s)", tOut)
	}
	if tIn != 15_000 {
		t.Fatalf("fiber-in drain at %v, want 15us (66 MB/s memory rate)", tIn)
	}
	if tVME != 100_000 {
		t.Fatalf("VME transfer at %v, want 100us (10 MB/s)", tVME)
	}
}

func TestDMAChannelFIFO(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDMA(eng)
	var done []sim.Time
	eng.At(0, func() {
		d.Transfer(ChanVME, 100, func() { done = append(done, eng.Now()) })
		d.Transfer(ChanVME, 100, func() { done = append(done, eng.Now()) })
	})
	eng.Run()
	if len(done) != 2 || done[0] != 10_000 || done[1] != 20_000 {
		t.Fatalf("completions %v, want [10us 20us]", done)
	}
	if d.Bytes(ChanVME) != 200 || d.Transfers(ChanVME) != 2 {
		t.Fatal("DMA stats wrong")
	}
}

func TestTimers(t *testing.T) {
	eng := sim.NewEngine()
	bank := NewTimers(eng)
	var tm, idle Timer
	var fires []string
	fire := func(what string) func() {
		return func() { fires = append(fires, fmt.Sprintf("%s@%v", what, eng.Now())) }
	}
	var stale Timer
	eng.At(0, func() {
		idle.Cancel() // never armed: a no-op
		bank.Arm(&tm, 100, fire("first"))
		bank.Arm(&tm, 150, fire("rearmed")) // pending: only this expiry fires
	})
	eng.At(200, func() {
		bank.Arm(&tm, 100, fire("canceled"))
		tm.Cancel()
		tm.Cancel() // twice: a no-op
	})
	eng.At(300, func() {
		bank.Arm(&tm, 50, func() {
			fire("fired")()
			// The engine reuses the fired event's slot for this arm; the
			// stale handle to the fired expiry must not cancel it.
			bank.Arm(&tm, 50, fire("after-stale"))
			stale.Cancel()
		})
		stale = tm // a copy holds the handle of this expiry
	})
	eng.Run()
	want := "[rearmed@150ns fired@350ns after-stale@400ns]"
	if got := fmt.Sprint(fires); got != want {
		t.Fatalf("fired %s, want %s", got, want)
	}
	if bank.Armed() != 5 || bank.Expired() != 3 {
		t.Fatalf("Armed=%d Expired=%d, want 5 and 3", bank.Armed(), bank.Expired())
	}
}

func TestVMETransferRate(t *testing.T) {
	eng := sim.NewEngine()
	v := NewVME(eng)
	var end sim.Time
	eng.At(0, func() { v.Transfer(1_000_000, func() { end = eng.Now() }) })
	eng.Run()
	// 1 MB at 10 MB/s = 100 ms.
	if end != 100*sim.Millisecond {
		t.Fatalf("1MB VME transfer took %v, want 100ms", end)
	}
}

func TestVMEInterrupts(t *testing.T) {
	eng := sim.NewEngine()
	v := NewVME(eng)
	var nodeAt, cabAt sim.Time
	v.OnNodeInterrupt(func() { nodeAt = eng.Now() })
	v.OnCABInterrupt(func() { cabAt = eng.Now() })
	eng.At(100, func() { v.InterruptNode() })
	eng.At(200, func() { v.InterruptCAB() })
	eng.Run()
	if nodeAt != 100+vmeInterruptDelay || cabAt != 200+vmeInterruptDelay {
		t.Fatalf("interrupts at %v/%v", nodeAt, cabAt)
	}
}

func TestVMEPIOTime(t *testing.T) {
	v := NewVME(sim.NewEngine())
	if v.PIOTime(4) != vmeWordTime {
		t.Fatalf("PIOTime(4) = %v", v.PIOTime(4))
	}
	if v.PIOTime(5) != 2*vmeWordTime {
		t.Fatalf("PIOTime(5) = %v (rounds up to words)", v.PIOTime(5))
	}
}

func TestBoardNetReady(t *testing.T) {
	eng := sim.NewEngine()
	b := NewBoard(eng, 0, "cab0")
	var waited sim.Time
	eng.Go("datalink", func(p *sim.Proc) {
		b.ClearNetReady()
		b.WaitNetReady(p)
		waited = p.Now()
	})
	eng.At(5000, func() { b.SetNetReady() })
	eng.Run()
	if waited != 5000 {
		t.Fatalf("WaitNetReady returned at %v, want 5000", waited)
	}
}

// A board that discards an arriving packet (powered off, or no datalink
// attached) drains it at once, returning exactly one credit upstream in the
// arrival's event; commands and replies carry none.
func TestBoardDiscardReturnsCredit(t *testing.T) {
	eng := sim.NewEngine()
	b := NewBoard(eng, 0, "cab0")
	credits := 0
	b.AttachNet(fiber.NewLink(eng, "cab0->hub", nil), func() { credits++ })
	items := []*fiber.Item{
		{Kind: fiber.KindCommand},
		{Kind: fiber.KindReply},
		{Kind: fiber.KindPacket, Payload: make([]byte, 8)},
	}
	check := func(state string) {
		credits = 0
		for _, it := range items {
			b.Receive(it)
		}
		if credits != 1 {
			t.Errorf("%s: one discarded packet returned %d credits, want 1", state, credits)
		}
	}
	check("no datalink")
	b.SetItemHandler(func(*fiber.Item) {})
	b.PowerOff()
	check("powered off")
	b.PowerOn()
	credits = 0
	for _, it := range items {
		b.Receive(it)
	}
	if credits != 0 {
		t.Errorf("a running board returned %d credits before its datalink drained anything", credits)
	}
}

// A powered-off board transmits nothing and keeps the credit its datalink
// took; the power-on reset sets the ready bit again and wakes the sender
// parked on it.
func TestBoardPowerOnReturnsWithheldCredit(t *testing.T) {
	eng := sim.NewEngine()
	b := NewBoard(eng, 0, "cab0")
	out := fiber.NewLink(eng, "cab0->hub", nil)
	b.AttachNet(out, nil)
	var woke sim.Time
	eng.At(100, func() {
		b.PowerOff()
		b.ClearNetReady()
		b.Send(&fiber.Item{Kind: fiber.KindPacket, Payload: make([]byte, 8)})
	})
	eng.Go("datalink", func(p *sim.Proc) {
		p.Sleep(200)
		b.WaitNetReady(p)
		woke = p.Now()
	})
	eng.At(5000, b.PowerOn)
	eng.Run()
	if out.Items() != 0 {
		t.Fatalf("powered-off board put %d items on the fiber", out.Items())
	}
	if woke != 5000 {
		t.Fatalf("sender parked on the withheld credit woke at %v, want 5000 (power-on)", woke)
	}
}

func TestChannelString(t *testing.T) {
	for _, c := range []Channel{ChanFiberOut, ChanFiberIn, ChanVME, Channel(9)} {
		if c.String() == "" {
			t.Fatal("empty channel name")
		}
	}
}

func TestCPUZeroDurationJobOrdering(t *testing.T) {
	eng := sim.NewEngine()
	cpu := NewCPU(eng)
	var order []string
	eng.At(0, func() {
		cpu.Submit(PrioThread, 0, func() { order = append(order, "a") })
		cpu.Submit(PrioThread, 0, func() { order = append(order, "b") })
	})
	eng.Run()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("order %v", order)
	}
}

func TestCPUManyInterruptsStretchThread(t *testing.T) {
	eng := sim.NewEngine()
	cpu := NewCPU(eng)
	var thDone sim.Time
	eng.At(0, func() {
		cpu.Submit(PrioThread, 1000, func() { thDone = eng.Now() })
	})
	// Five 100ns interrupts land during the computation.
	for i := 1; i <= 5; i++ {
		at := sim.Time(i * 150)
		eng.At(at, func() { cpu.Submit(PrioInterrupt, 100, nil) })
	}
	eng.Run()
	if thDone != 1500 {
		t.Fatalf("thread done at %v, want 1500 (1000 + 5x100 stolen)", thDone)
	}
}

func TestCPUInterruptAfterThreadQueueDrains(t *testing.T) {
	// An interrupt arriving while the CPU is idle runs immediately, and a
	// thread submitted during the interrupt waits its turn.
	eng := sim.NewEngine()
	cpu := NewCPU(eng)
	var order []string
	eng.At(0, func() {
		cpu.Submit(PrioInterrupt, 100, func() {
			order = append(order, "i")
			cpu.Submit(PrioThread, 50, func() { order = append(order, "t") })
		})
	})
	eng.Run()
	if len(order) != 2 || order[0] != "i" || order[1] != "t" {
		t.Fatalf("order %v", order)
	}
	if eng.Now() != 150 {
		t.Fatalf("end %v", eng.Now())
	}
}

func TestCPUNegativeWorkPanics(t *testing.T) {
	eng := sim.NewEngine()
	cpu := NewCPU(eng)
	defer func() {
		if recover() == nil {
			t.Fatal("negative work did not panic")
		}
	}()
	cpu.Submit(PrioThread, -1, nil)
}
