package apps

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Distributed shared virtual memory (paper §7: "the simulation of shared
// virtual memory over a distributed system using Mach [9]. In these
// applications, the CAB will play a critical role as an operating system
// co-processor").
//
// The implementation is a working single-manager ownership protocol in the
// style of Li & Hudak: a manager CAB holds each page's directory entry
// (shared readers set, or an exclusive owner); workers fault pages in over
// the request-response transport; a write fault invalidates every shared
// copy and recalls a dirty exclusive copy from its owner. Page contents
// are real bytes, so coherence violations show up as lost updates, which
// the tests assert cannot happen.

// DSMConfig parameterizes the shared-memory workload.
type DSMConfig struct {
	// Workers is the number of worker CABs (manager lives on CAB 0).
	Workers int
	// Pages in the shared address space.
	Pages int
	// PageBytes is the page size.
	PageBytes int
	// OpsPerWorker is the number of page accesses each worker performs.
	OpsPerWorker int
	// WritePercent of accesses are writes.
	WritePercent int
	// FaultCost is the local cost of taking and servicing a page fault
	// (trap + map manipulation) on the worker.
	FaultCost sim.Time
}

// DefaultDSMConfig returns a small sharing-heavy workload.
func DefaultDSMConfig() DSMConfig {
	return DSMConfig{
		Workers:      4,
		Pages:        8,
		PageBytes:    1024,
		OpsPerWorker: 60,
		WritePercent: 30,
		FaultCost:    150 * sim.Microsecond,
	}
}

// DSMResult summarizes a run.
type DSMResult struct {
	ReadFaults    int
	WriteFaults   int
	Invalidations int
	Recalls       int
	LocalHits     int
	FaultLatency  *trace.Histogram
	Elapsed       sim.Time
	// CounterFinal is the shared counter's final value; coherence bugs
	// surface as lost increments.
	CounterFinal    uint64
	CounterExpected uint64
}

// DSM protocol verbs.
const (
	dsmReadFault  = 1
	dsmWriteFault = 2
	dsmInvalidate = 3
	dsmRecall     = 4
	dsmIncr       = 5 // worker op encoding, not a wire verb
)

const (
	dsmManagerBox = 30
	dsmCtlBoxBase = 40
)

// dsmMsg: verb | page u32 | worker u32 | payload...
func dsmMsg(verb byte, page, worker uint32, payload []byte) []byte {
	b := make([]byte, 9+len(payload))
	b[0] = verb
	binary.BigEndian.PutUint32(b[1:], page)
	binary.BigEndian.PutUint32(b[5:], worker)
	copy(b[9:], payload)
	return b
}

// pageDir is the manager's directory entry for one page.
type pageDir struct {
	data    []byte
	readers map[int]bool // workers holding shared copies
	owner   int          // exclusive owner (-1 = none; data is authoritative)
}

// dsmWorkerCache is one worker's view of a page.
type dsmWorkerCache struct {
	data     []byte
	writable bool
}

// RunDSM runs the shared-virtual-memory workload on 1+Workers CABs. Every
// worker hammers a shared counter in page 0 (write-write sharing) and
// reads/writes the remaining pages pseudo-randomly.
func RunDSM(sys *core.System, cfg DSMConfig) (*DSMResult, error) {
	if sys.NumCABs() < 1+cfg.Workers {
		return nil, fmt.Errorf("apps: dsm needs %d CABs, have %d", 1+cfg.Workers, sys.NumCABs())
	}
	res := &DSMResult{FaultLatency: trace.NewHistogram("fault-latency")}

	mgr := sys.CAB(0)
	mgrBoxMB := mgr.Kernel.NewMailbox("dsm-mgr", 4<<20)
	mgr.TP.Register(dsmManagerBox, mgrBoxMB)

	// Worker control mailboxes (serve invalidate/recall).
	for w := 0; w < cfg.Workers; w++ {
		st := sys.CAB(1 + w)
		mb := st.Kernel.NewMailbox(fmt.Sprintf("dsm-ctl%d", w), 1<<20)
		st.TP.Register(uint16(dsmCtlBoxBase+w), mb)
	}

	// Per-worker cache state (accessed only from threads of that worker's
	// CAB; the kernel's cooperative scheduling serializes them). epochs
	// count invalidate/recall events per page: a fault whose response was
	// overtaken by an invalidation (the grant was in flight when the
	// manager revoked it for a later writer) observes the epoch change
	// and refetches instead of installing a stale copy — without it the
	// protocol loses updates; blocking the control thread instead would
	// deadlock the manager.
	caches := make([]map[uint32]*dsmWorkerCache, cfg.Workers)
	epochs := make([]map[uint32]uint64, cfg.Workers)
	for w := range caches {
		caches[w] = make(map[uint32]*dsmWorkerCache)
		epochs[w] = make(map[uint32]uint64)
	}

	// Worker control threads: drop or return pages on demand.
	for w := 0; w < cfg.Workers; w++ {
		w := w
		st := sys.CAB(1 + w)
		mb := st.TP.Mailbox(uint16(dsmCtlBoxBase + w))
		st.Kernel.SpawnDaemon("dsm-ctl", func(th *kernel.Thread) {
			for {
				req := mb.Get(th)
				b := req.Bytes()
				verb := b[0]
				page := binary.BigEndian.Uint32(b[1:])
				switch verb {
				case dsmInvalidate:
					delete(caches[w], page)
					epochs[w][page]++
					st.TP.Respond(th, req, []byte{1})
				case dsmRecall:
					// Return the (possibly dirty) copy and drop it.
					var data []byte
					if c := caches[w][page]; c != nil {
						data = c.data
					}
					delete(caches[w], page)
					epochs[w][page]++
					st.TP.Respond(th, req, data)
				}
				mb.Release(req)
			}
		})
	}

	// Manager thread: serves faults one at a time (the serialization point
	// that makes the protocol correct).
	mgr.Kernel.SpawnDaemon("dsm-manager", func(th *kernel.Thread) {
		dir := make([]*pageDir, cfg.Pages)
		for p := range dir {
			dir[p] = &pageDir{data: make([]byte, cfg.PageBytes), readers: map[int]bool{}, owner: -1}
		}
		ctlBox := func(worker int) (int, uint16) {
			return 1 + worker, uint16(dsmCtlBoxBase + worker)
		}
		for {
			req := mgrBoxMB.Get(th)
			b := req.Bytes()
			verb := b[0]
			page := binary.BigEndian.Uint32(b[1:])
			worker := int(binary.BigEndian.Uint32(b[5:]))
			d := dir[page]

			// If an exclusive owner holds the page, recall the dirty
			// copy first (unless the faulting worker IS the owner).
			if d.owner >= 0 && d.owner != worker {
				cab, box := ctlBox(d.owner)
				data, err := mgr.TP.Request(th, cab, box, dsmManagerBox,
					dsmMsg(dsmRecall, page, uint32(d.owner), nil))
				if err == nil && len(data) == cfg.PageBytes {
					d.data = append([]byte(nil), data...)
				}
				res.Recalls++
				d.owner = -1
			}
			switch verb {
			case dsmReadFault:
				d.readers[worker] = true
				res.ReadFaults++
				mgr.TP.Respond(th, req, d.data)
			case dsmWriteFault:
				// Invalidate every other shared copy, in worker order (map
				// order would make the run differ from one to the next).
				for r := 0; r < cfg.Workers; r++ {
					if r == worker || !d.readers[r] {
						continue
					}
					cab, box := ctlBox(r)
					mgr.TP.Request(th, cab, box, dsmManagerBox,
						dsmMsg(dsmInvalidate, page, uint32(r), nil))
					res.Invalidations++
				}
				d.readers = map[int]bool{}
				d.owner = worker
				res.WriteFaults++
				mgr.TP.Respond(th, req, d.data)
			}
			mgrBoxMB.Release(req)
		}
	})

	// Workers.
	done := 0
	for w := 0; w < cfg.Workers; w++ {
		w := w
		st := sys.CAB(1 + w)
		st.Kernel.Spawn("dsm-worker", func(th *kernel.Thread) {
			cache := caches[w]
			myBox := uint16(dsmCtlBoxBase + w)
			fault := func(page uint32, write bool) *dsmWorkerCache {
				start := th.Proc().Now()
				verb := byte(dsmReadFault)
				if write {
					verb = dsmWriteFault
				}
				for {
					th.Compute(cfg.FaultCost)
					e0 := epochs[w][page]
					data, err := st.TP.Request(th, 0, dsmManagerBox, myBox,
						dsmMsg(verb, page, uint32(w), nil))
					if err != nil {
						panic(err)
					}
					if epochs[w][page] != e0 {
						// Our grant was revoked while in flight: the
						// copy is stale; fault again for fresh state.
						continue
					}
					c := &dsmWorkerCache{data: append([]byte(nil), data...), writable: write}
					cache[page] = c
					res.FaultLatency.Add(th.Proc().Now() - start)
					return c
				}
			}
			access := func(page uint32, write bool) *dsmWorkerCache {
				c := cache[page]
				if c == nil || (write && !c.writable) {
					return fault(page, write)
				}
				res.LocalHits++
				return c
			}
			rng := uint32(31 + w)
			next := func(m uint32) uint32 {
				rng = rng*1664525 + 1013904223
				return (rng >> 16) % m
			}
			for op := 0; op < cfg.OpsPerWorker; op++ {
				if op%3 == 0 {
					// Contended increment of the shared counter in page 0.
					c := access(0, true)
					v := binary.BigEndian.Uint64(c.data)
					binary.BigEndian.PutUint64(c.data, v+1)
				} else {
					page := 1 + next(uint32(cfg.Pages-1))
					write := next(100) < uint32(cfg.WritePercent)
					c := access(page, write)
					if write {
						c.data[int(next(uint32(cfg.PageBytes)))] = byte(op)
					} else {
						_ = c.data[int(next(uint32(cfg.PageBytes)))]
					}
				}
				th.Compute(20 * sim.Microsecond)
			}
			done++
			if done == cfg.Workers {
				res.Elapsed = th.Proc().Now()
			}
		})
	}

	sys.Run()

	// Collect the final counter value: the authoritative copy is either at
	// the manager or at the last exclusive owner's cache.
	final := uint64(0)
	for w := 0; w < cfg.Workers; w++ {
		if c := caches[w][0]; c != nil && c.writable {
			final = binary.BigEndian.Uint64(c.data)
		}
	}
	res.CounterFinal = final
	for w := 0; w < cfg.Workers; w++ {
		res.CounterExpected += uint64((cfg.OpsPerWorker + 2) / 3)
	}
	return res, nil
}
