// Package cab models the Communication Accelerator Board (paper §5): a
// RISC-based processor board that implements the network protocols,
// interfaces the Nectar-net to a node's VME bus, and can run off-loaded
// application tasks.
//
// The board comprises a CPU (a 16 MHz SPARC in the prototype), a DMA
// controller that moves data between the fibers, CAB memory and the VME bus
// concurrently with computation, program and data memory with per-page
// protection across 32 domains, a hardware checksum unit, and hardware
// timers. Software costs (protocol processing, interrupt handling) are
// charged to the simulated CPU so they appear in end-to-end latency exactly
// as they did on the prototype.
package cab

import (
	"fmt"

	"repro/internal/sim"
)

// Priority of CPU work. Interrupt-level work preempts thread-level work
// (the SPARC reserves a register window for trap handling, paper §6.2.1).
type Priority int

// CPU priorities.
const (
	PrioInterrupt Priority = iota
	PrioThread
)

// job is one unit of CPU work. On completion it runs done, then wakes
// proc: the process a Compute parked.
type job struct {
	prio      Priority
	remaining sim.Time
	done      func()
	proc      *sim.Proc
}

// CPU is a preemptible work server. Work is submitted with a duration and a
// completion callback; interrupt-level work preempts thread-level work,
// whose remaining time resumes afterwards. The model composes costs
// correctly: a thread computation delayed by interrupts finishes late by
// exactly the stolen time.
type CPU struct {
	eng *sim.Engine

	cur      job
	running  bool // cur holds the job in progress
	curEvent sim.Event
	curStart sim.Time
	finishFn func() // c.finish, bound once

	intq sim.FIFO[job] // pending interrupt-level jobs
	thq  sim.FIFO[job] // pending thread-level jobs

	busy     sim.Time // accumulated busy time
	jobsDone int64
}

// NewCPU returns an idle CPU.
func NewCPU(eng *sim.Engine) *CPU {
	c := &CPU{eng: eng}
	c.finishFn = c.finish
	return c
}

// BusyTime returns the total time the CPU has spent executing completed or
// partially-executed work.
func (c *CPU) BusyTime() sim.Time { return c.busy }

// JobsDone returns the number of completed jobs.
func (c *CPU) JobsDone() int64 { return c.jobsDone }

// Idle reports whether the CPU has no running or queued work.
func (c *CPU) Idle() bool { return !c.running && c.intq.Len() == 0 && c.thq.Len() == 0 }

// Submit schedules work of the given duration; done runs on completion.
// Zero-duration work completes via the event queue (preserving ordering).
func (c *CPU) Submit(prio Priority, d sim.Time, done func()) {
	c.submit(job{prio: prio, remaining: d, done: done})
}

func (c *CPU) submit(j job) {
	if j.remaining < 0 {
		panic(fmt.Sprintf("cab: negative CPU work %v", j.remaining))
	}
	if j.prio == PrioInterrupt {
		c.intq.Push(j)
		// Preempt thread-level work.
		if c.running && c.cur.prio == PrioThread {
			c.preempt()
		}
	} else {
		c.thq.Push(j)
	}
	c.dispatch()
}

// preempt stops the current thread-level job, banking its progress, and
// requeues it at the front of the thread queue.
func (c *CPU) preempt() {
	elapsed := c.eng.Now() - c.curStart
	c.busy += elapsed
	c.cur.remaining -= elapsed
	if c.cur.remaining < 0 {
		c.cur.remaining = 0
	}
	c.eng.Cancel(c.curEvent)
	c.thq.PushFront(c.cur)
	c.cur, c.running = job{}, false
	c.curEvent = sim.Event{}
}

// dispatch starts the next job if the CPU is free.
func (c *CPU) dispatch() {
	if c.running {
		return
	}
	switch {
	case c.intq.Len() > 0:
		c.cur = c.intq.Pop()
	case c.thq.Len() > 0:
		c.cur = c.thq.Pop()
	default:
		return
	}
	c.running = true
	c.curStart = c.eng.Now()
	c.curEvent = c.eng.After(c.cur.remaining, c.finishFn)
}

// finish completes the current job (its event fired; a preempted job's
// event is canceled) and starts the next.
func (c *CPU) finish() {
	done, proc := c.cur.done, c.cur.proc
	c.busy += c.eng.Now() - c.curStart
	c.cur, c.running = job{}, false
	c.curEvent = sim.Event{}
	c.jobsDone++
	if done != nil {
		done()
	}
	if proc != nil {
		proc.Wake()
	}
	c.dispatch()
}

// RunInterrupt is a convenience for interrupt handlers: charge `d` of
// interrupt-level CPU time, then run fn.
func (c *CPU) RunInterrupt(d sim.Time, fn func()) {
	c.Submit(PrioInterrupt, d, fn)
}

// Compute blocks the calling process for d of thread-level CPU time
// (stretched by any interrupts that arrive meanwhile).
func (c *CPU) Compute(p *sim.Proc, d sim.Time) {
	c.submit(job{prio: PrioThread, remaining: d, proc: p})
	p.Park()
}
