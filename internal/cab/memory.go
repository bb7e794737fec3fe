package cab

import (
	"errors"
	"fmt"
)

// Memory layout constants from paper §5.2. The CAB occupies a 24-bit region
// of the node's VME address space; program and data memory are separate
// regions ("the memory architecture is thus optimized for the expected
// usage pattern").
const (
	// PageSize is the protection granularity ("each 1 kilobyte page to be
	// protected separately").
	PageSize = 1024

	// ProgBase/ProgSize: 128 KB PROM + 512 KB RAM of program memory.
	ProgBase = 0x000000
	ProgSize = 640 * 1024

	// DataBase/DataSize: 1 MB of data memory.
	DataBase = 0x100000
	DataSize = 1024 * 1024

	// RegBase covers CAB registers and devices (also page-protected).
	RegBase = 0x300000
	RegSize = 64 * 1024

	// AddrSpace is the 24-bit CAB address space size.
	AddrSpace = 1 << 24

	// NumDomains is the number of protection domains ("currently the CAB
	// supports 32 protection domains").
	NumDomains = 32

	// VMEDomain is the domain assigned to accesses from over the VME bus.
	VMEDomain = NumDomains - 1

	// KernelDomain is the CAB kernel's own domain.
	KernelDomain = 0
)

// Perm is a page-access permission bitmask.
type Perm byte

// Permissions ("any subset of read, write, and execute permissions").
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermExec

	PermRW  = PermRead | PermWrite
	PermAll = PermRead | PermWrite | PermExec
)

// Addr is a CAB-local address.
type Addr uint32

// ErrNoMemory is returned when an allocation cannot be satisfied.
var ErrNoMemory = errors.New("cab: out of data memory")

// ProtectionError describes a failed access check.
type ProtectionError struct {
	Domain int
	Addr   Addr
	Len    int
	Want   Perm
}

func (e *ProtectionError) Error() string {
	return fmt.Sprintf("cab: protection fault: domain %d access [%#x,+%d) perm %03b",
		e.Domain, e.Addr, e.Len, e.Want)
}

// Memory models the CAB's memory and its protection hardware. The data
// region is backed by real bytes: protocol code reads and writes actual
// message contents through it. A first-fit allocator manages the data
// region for mailboxes and buffers.
//
// The modelled region is the full DataSize, but host storage is sparse: a
// 1 KB page gets its bytes on first Write (a page never written reads as
// zeros), and a domain's permission row exists once SetPerm first touches
// it. A 1024-CAB system therefore holds only the pages its mailboxes used.
type Memory struct {
	// pages[i] backs data-region page i; nil until first written. The
	// slice grows to the highest page written, which the first-fit
	// allocator keeps low.
	pages []*[PageSize]byte

	// perms[domain][page] is the permission set of that page. A nil row
	// is the domain's default: PermAll for the kernel, nothing otherwise.
	perms [NumDomains][]Perm

	// Allocator free list over the data region: sorted, coalesced.
	free []span

	allocated int
	faults    int64
}

type span struct {
	base Addr
	size int
}

// numPages is the number of protection pages in the address space.
const numPages = AddrSpace / PageSize

// NewMemory returns a CAB memory with the full data region free and all
// pages granted to the kernel domain only.
func NewMemory() *Memory {
	return &Memory{free: []span{{base: DataBase, size: DataSize}}}
}

// Faults returns the number of failed protection checks.
func (m *Memory) Faults() int64 { return m.faults }

// Allocated returns the number of data-region bytes currently allocated.
func (m *Memory) Allocated() int { return m.allocated }

// defaultPerm is a domain's permission on every page until SetPerm first
// touches its row: the kernel can touch everything, other domains nothing.
func defaultPerm(domain int) Perm {
	if domain == KernelDomain {
		return PermAll
	}
	return 0
}

// SetPerm assigns permissions for [addr, addr+size) pages in a domain.
func (m *Memory) SetPerm(domain int, addr Addr, size int, p Perm) {
	row := m.perms[domain]
	if row == nil {
		row = make([]Perm, numPages)
		if d := defaultPerm(domain); d != 0 {
			for pg := range row {
				row[pg] = d
			}
		}
		m.perms[domain] = row
	}
	first := int(addr) / PageSize
	last := (int(addr) + size - 1) / PageSize
	for pg := first; pg <= last; pg++ {
		row[pg] = p
	}
}

// Check verifies that a domain may access [addr, addr+n) with permission
// want. Checks are performed by hardware in parallel with the access
// ("no latency is added to memory accesses"), so no CPU time is charged.
func (m *Memory) Check(domain int, addr Addr, n int, want Perm) error {
	if n <= 0 {
		return nil
	}
	first := int(addr) / PageSize
	last := (int(addr) + n - 1) / PageSize
	for pg := first; pg <= last; pg++ {
		if pg >= numPages || m.perm(domain, pg)&want != want {
			m.faults++
			return &ProtectionError{Domain: domain, Addr: addr, Len: n, Want: want}
		}
	}
	return nil
}

// perm returns domain's permission on page pg (pg < numPages).
func (m *Memory) perm(domain, pg int) Perm {
	if row := m.perms[domain]; row != nil {
		return row[pg]
	}
	return defaultPerm(domain)
}

// inData reports whether [addr, addr+n) lies within the data region.
func inData(addr Addr, n int) bool {
	return addr >= DataBase && int(addr)+n <= DataBase+DataSize
}

// Read copies n bytes at addr out of data memory after a protection check.
func (m *Memory) Read(domain int, addr Addr, n int) ([]byte, error) {
	if !inData(addr, n) {
		return nil, &ProtectionError{Domain: domain, Addr: addr, Len: n, Want: PermRead}
	}
	if err := m.Check(domain, addr, n, PermRead); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	off := int(addr - DataBase)
	for done := 0; done < n; {
		pg, in := (off+done)/PageSize, (off+done)%PageSize
		k := min(PageSize-in, n-done)
		if pg < len(m.pages) && m.pages[pg] != nil {
			copy(out[done:done+k], m.pages[pg][in:])
		}
		done += k
	}
	return out, nil
}

// Write copies b into data memory at addr after a protection check.
func (m *Memory) Write(domain int, addr Addr, b []byte) error {
	if !inData(addr, len(b)) {
		return &ProtectionError{Domain: domain, Addr: addr, Len: len(b), Want: PermWrite}
	}
	if err := m.Check(domain, addr, len(b), PermWrite); err != nil {
		return err
	}
	off := int(addr - DataBase)
	for done := 0; done < len(b); {
		pg, in := (off+done)/PageSize, (off+done)%PageSize
		done += copy(m.page(pg)[in:], b[done:])
	}
	return nil
}

// page returns data-region page pg, allocating it on first use.
func (m *Memory) page(pg int) *[PageSize]byte {
	for len(m.pages) <= pg {
		m.pages = append(m.pages, nil)
	}
	if m.pages[pg] == nil {
		m.pages[pg] = new([PageSize]byte)
	}
	return m.pages[pg]
}

// Alloc reserves size bytes of data memory (first fit, 8-byte aligned).
func (m *Memory) Alloc(size int) (Addr, error) {
	if size <= 0 {
		return 0, fmt.Errorf("cab: bad allocation size %d", size)
	}
	size = (size + 7) &^ 7
	for i := range m.free {
		if m.free[i].size >= size {
			base := m.free[i].base
			m.free[i].base += Addr(size)
			m.free[i].size -= size
			if m.free[i].size == 0 {
				m.free = append(m.free[:i], m.free[i+1:]...)
			}
			m.allocated += size
			return base, nil
		}
	}
	return 0, ErrNoMemory
}

// Free returns a block to the allocator, coalescing adjacent spans.
func (m *Memory) Free(addr Addr, size int) {
	size = (size + 7) &^ 7
	m.allocated -= size
	// Insert sorted by base.
	i := 0
	for i < len(m.free) && m.free[i].base < addr {
		i++
	}
	m.free = append(m.free, span{})
	copy(m.free[i+1:], m.free[i:])
	m.free[i] = span{base: addr, size: size}
	// Coalesce with neighbors.
	if i+1 < len(m.free) && m.free[i].base+Addr(m.free[i].size) == m.free[i+1].base {
		m.free[i].size += m.free[i+1].size
		m.free = append(m.free[:i+1], m.free[i+2:]...)
	}
	if i > 0 && m.free[i-1].base+Addr(m.free[i-1].size) == m.free[i].base {
		m.free[i-1].size += m.free[i].size
		m.free = append(m.free[:i], m.free[i+1:]...)
	}
}

// FreeBytes returns the total unallocated data memory.
func (m *Memory) FreeBytes() int {
	n := 0
	for _, s := range m.free {
		n += s.size
	}
	return n
}

// CheckFreeList verifies allocator invariants (sorted, non-overlapping,
// coalesced); used by property tests.
func (m *Memory) CheckFreeList() error {
	for i := 1; i < len(m.free); i++ {
		prev, cur := m.free[i-1], m.free[i]
		if prev.base+Addr(prev.size) > cur.base {
			return fmt.Errorf("cab: free list overlap at %d", i)
		}
		if prev.base+Addr(prev.size) == cur.base {
			return fmt.Errorf("cab: free list not coalesced at %d", i)
		}
	}
	return nil
}
