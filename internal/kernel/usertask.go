package kernel

import (
	"fmt"

	"repro/internal/cab"
)

// UserTask is an off-loaded application task running on the CAB under a
// private protection domain (paper §5.1-§5.2: "Allowing application
// software to run on the CAB is important to many applications but has
// dangers. In particular, incorrect application software may corrupt CAB
// operating system data structures. To prevent such problems, the CAB
// provides memory protection on a per-page basis and hardware support for
// multiple protection domains... The kernel can therefore ensure that the
// CAB system software is protected from user tasks and that user tasks are
// protected from one another.")
//
// All of a user task's data-memory accesses go through Read/Write, which
// the (zero-latency, hardware) protection check validates against the
// task's domain.
type UserTask struct {
	*Thread
	k      *Kernel
	domain int
	// allocations tracks the task's memory for teardown.
	allocations map[cab.Addr]int
}

// Domain returns the task's protection domain.
func (t *UserTask) Domain() int { return t.domain }

// nextDomain hands out user domains 1..30 (0 is the kernel, 31 the VME
// bus).
func (k *Kernel) nextDomain() (int, error) {
	k.lastDomain++
	d := k.lastDomain
	if d >= cab.VMEDomain {
		return 0, fmt.Errorf("kernel: out of protection domains (max %d user tasks)", cab.VMEDomain-1)
	}
	return d, nil
}

// SpawnUser creates an application task in a fresh protection domain. The
// body runs as a kernel thread but may only touch data memory it allocated
// through the task's own Alloc.
func (k *Kernel) SpawnUser(name string, body func(t *UserTask)) (*UserTask, error) {
	domain, err := k.nextDomain()
	if err != nil {
		return nil, err
	}
	ut := &UserTask{k: k, domain: domain, allocations: make(map[cab.Addr]int)}
	ut.Thread = k.Spawn(name, func(th *Thread) {
		body(ut)
		// The thread may be reused once the body returns: a late use
		// of ut.Thread fails at once instead of reaching its next owner.
		ut.Thread = nil
	})
	return ut, nil
}

// Alloc reserves data memory for the task and grants its domain read/write
// permission on those pages (whole pages: the 1 KB protection granularity
// of the hardware).
func (t *UserTask) Alloc(n int) (cab.Addr, error) {
	// Round to pages so a page is never shared between two domains.
	pages := (n + cab.PageSize - 1) / cab.PageSize
	addr, err := t.k.board.Mem.Alloc(pages * cab.PageSize)
	if err != nil {
		return 0, err
	}
	t.k.board.Mem.SetPerm(t.domain, addr, pages*cab.PageSize, cab.PermRW)
	t.allocations[addr] = pages * cab.PageSize
	return addr, nil
}

// Free returns a task allocation and revokes the pages.
func (t *UserTask) Free(addr cab.Addr) {
	n, ok := t.allocations[addr]
	if !ok {
		return
	}
	t.k.board.Mem.SetPerm(t.domain, addr, n, 0)
	t.k.board.Mem.Free(addr, n)
	delete(t.allocations, addr)
}

// Read fetches task memory through the protection hardware. An access
// outside the task's pages returns a protection fault, exactly as the
// hardware would deliver one.
func (t *UserTask) Read(addr cab.Addr, n int) ([]byte, error) {
	return t.k.board.Mem.Read(t.domain, addr, n)
}

// Write stores task memory through the protection hardware.
func (t *UserTask) Write(addr cab.Addr, data []byte) error {
	return t.k.board.Mem.Write(t.domain, addr, data)
}

// Exit tears down the task's memory (called by the body before returning,
// or by a supervisor).
func (t *UserTask) Exit() {
	for addr := range t.allocations {
		t.Free(addr)
	}
}
