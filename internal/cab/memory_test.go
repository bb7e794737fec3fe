package cab

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
)

// denseMemory is the reference model for Memory: every data byte and every
// (domain, page) permission held eagerly, as the hardware has them.
type denseMemory struct {
	data   []byte
	perms  [NumDomains][]Perm
	faults int64
}

func newDenseMemory() *denseMemory {
	d := &denseMemory{data: make([]byte, DataSize)}
	for dom := range d.perms {
		d.perms[dom] = make([]Perm, numPages)
	}
	for pg := range d.perms[KernelDomain] {
		d.perms[KernelDomain][pg] = PermAll
	}
	return d
}

func (d *denseMemory) setPerm(domain int, addr Addr, size int, p Perm) {
	for pg := int(addr) / PageSize; pg <= (int(addr)+size-1)/PageSize; pg++ {
		d.perms[domain][pg] = p
	}
}

func (d *denseMemory) check(domain int, addr Addr, n int, want Perm) bool {
	if n <= 0 {
		return true
	}
	for pg := int(addr) / PageSize; pg <= (int(addr)+n-1)/PageSize; pg++ {
		if pg >= numPages || d.perms[domain][pg]&want != want {
			d.faults++
			return false
		}
	}
	return true
}

func (d *denseMemory) read(domain int, addr Addr, n int) ([]byte, bool) {
	if !inData(addr, n) || !d.check(domain, addr, n, PermRead) {
		return nil, false
	}
	return append([]byte(nil), d.data[addr-DataBase:int(addr-DataBase)+n]...), true
}

func (d *denseMemory) write(domain int, addr Addr, b []byte) bool {
	if !inData(addr, len(b)) || !d.check(domain, addr, len(b), PermWrite) {
		return false
	}
	copy(d.data[addr-DataBase:], b)
	return true
}

// Property: random Alloc/Free/Write/Read/SetPerm/Check sequences give the
// sparse Memory exactly the dense model's results — bytes read, which
// accesses fault, and the fault count — including page-straddling
// accesses, reads of never-written pages, the kernel domain's implicit
// everything, the VME domain's nothing, and pages past the address space.
func TestMemoryMatchesDenseModel(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, ref := NewMemory(), newDenseMemory()
		type block struct {
			a Addr
			n int
		}
		var live []block
		// addr picks a data address: inside a live block (so near the
		// allocator's low end), anywhere in the region, or just below a
		// page boundary so the access straddles it.
		addr := func() Addr {
			switch r := rng.Intn(3); {
			case r == 0 && len(live) > 0:
				b := live[rng.Intn(len(live))]
				return b.a + Addr(rng.Intn(b.n))
			case r == 1:
				return DataBase + Addr(rng.Intn(DataSize/PageSize))*PageSize - Addr(rng.Intn(16))
			default:
				return DataBase + Addr(rng.Intn(DataSize))
			}
		}
		// domain picks the kernel, a user domain, or the VME domain.
		domain := func() int {
			switch rng.Intn(4) {
			case 0:
				return KernelDomain
			case 1:
				return VMEDomain
			default:
				return 1 + rng.Intn(4)
			}
		}
		perm := func() Perm { return Perm(rng.Intn(int(PermAll) + 1)) }
		for op := 0; op < 3000; op++ {
			switch rng.Intn(7) {
			case 0:
				n := 1 + rng.Intn(5000)
				if a, err := m.Alloc(n); err == nil {
					live = append(live, block{a, n})
				}
			case 1:
				if len(live) > 0 {
					k := rng.Intn(len(live))
					m.Free(live[k].a, live[k].n)
					live = append(live[:k], live[k+1:]...)
				}
			case 2:
				a, dom := addr(), domain()
				b := make([]byte, rng.Intn(3*PageSize))
				rng.Read(b)
				err := m.Write(dom, a, b)
				if ok := ref.write(dom, a, b); ok != (err == nil) {
					t.Fatalf("seed %d op %d: Write(dom %d, %#x, %d) err=%v, model ok=%v", seed, op, dom, a, len(b), err, ok)
				}
			case 3:
				a, dom, n := addr(), domain(), rng.Intn(3*PageSize)
				got, err := m.Read(dom, a, n)
				want, ok := ref.read(dom, a, n)
				if ok != (err == nil) || !bytes.Equal(got, want) {
					t.Fatalf("seed %d op %d: Read(dom %d, %#x, %d) err=%v, model ok=%v; bytes equal=%v",
						seed, op, dom, a, n, err, ok, bytes.Equal(got, want))
				}
			case 4:
				// Never the VME domain: nothing grants it pages.
				dom := rng.Intn(VMEDomain)
				a, n, p := Addr(rng.Intn(AddrSpace-4*PageSize)), 1+rng.Intn(4*PageSize), perm()
				m.SetPerm(dom, a, n, p)
				ref.setPerm(dom, a, n, p)
			case 5:
				// Anywhere in the address space, or across its last page.
				a := Addr(rng.Intn(AddrSpace))
				if rng.Intn(2) == 0 {
					a = AddrSpace - Addr(rng.Intn(2*PageSize))
				}
				dom, n, want := domain(), rng.Intn(3*PageSize), perm()
				err := m.Check(dom, a, n, want)
				if ok := ref.check(dom, a, n, want); ok != (err == nil) {
					t.Fatalf("seed %d op %d: Check(dom %d, %#x, %d, %03b) err=%v, model ok=%v", seed, op, dom, a, n, want, err, ok)
				}
			case 6:
				a, n := addr(), 1+rng.Intn(2*PageSize)
				if err := m.Check(VMEDomain, a, n, PermRead); err == nil {
					t.Fatalf("seed %d op %d: VME domain granted [%#x,+%d)", seed, op, a, n)
				}
				ref.faults++
			}
			if m.Faults() != ref.faults {
				t.Fatalf("seed %d op %d: Faults = %d, model %d", seed, op, m.Faults(), ref.faults)
			}
		}
		if err := m.CheckFreeList(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// A fresh memory holds no data pages and no permission rows: the 1 MB
// region and its protection table exist only as they are used.
func TestNewMemoryRetainsLittle(t *testing.T) {
	const n = 256
	keep := make([]*Memory, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = NewMemory()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	if per >= 4096 {
		t.Fatalf("NewMemory retains %d bytes, want under 4 KB", per)
	}
	runtime.KeepAlive(keep)
}
