// Package lan models the comparison point the paper measures Nectar
// against: a "current LAN" (§3.1) — a 10 Mb/s CSMA/CD Ethernet shared
// medium with a conventional in-kernel protocol stack on every node, where
// "the time spent in the software dominates the time spent on the wire"
// (refs [3,5,11]). The Nectar-net "offers at least an order of magnitude
// improvement in bandwidth and latency over current LANs", and the
// experiment harness reproduces that comparison against this package.
package lan

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"repro/internal/cab"
	"repro/internal/sim"
	"repro/internal/trace"
)

// maxAttempts is Ethernet's transmit attempt limit: after 16 consecutive
// collisions on the same frame the controller reports an excessive-collision
// error and discards it (the backoff exponent itself caps at 10).
const maxAttempts = 16

// Params configure the LAN and its node stack.
type Params struct {
	// ByteTime is the medium serialization cost (10 Mb/s -> 800 ns).
	ByteTime sim.Time
	// SlotTime is the CSMA/CD contention slot (Ethernet: 51.2 us).
	SlotTime sim.Time
	// MaxPayload is the usable frame payload (Ethernet MTU minus our
	// 13-byte message framing).
	MaxPayload int
	// FrameOverhead is per-frame header/CRC/preamble/gap bytes.
	FrameOverhead int
	// Node stack costs (the same conventional-UNIX figures used for the
	// Nectar network-driver interface).
	Syscall      sim.Time
	CopyByteTime sim.Time
	Interrupt    sim.Time
	PerPacket    sim.Time
	// Seed drives backoff randomness.
	Seed int64
}

// DefaultParams returns a 1988-vintage Ethernet + UNIX stack.
func DefaultParams() Params {
	return Params{
		ByteTime:      800 * sim.Nanosecond,
		SlotTime:      51200 * sim.Nanosecond,
		MaxPayload:    1487, // 1500 MTU - 13-byte message framing
		FrameOverhead: 26,   // preamble 8 + header 14 + CRC 4
		Syscall:       100 * sim.Microsecond,
		CopyByteTime:  250 * sim.Nanosecond,
		Interrupt:     50 * sim.Microsecond,
		PerPacket:     250 * sim.Microsecond,
		Seed:          1,
	}
}

// Message is a delivered LAN message.
type Message struct {
	Src     int
	Data    []byte
	Arrived sim.Time
}

// Ethernet is the shared medium.
type Ethernet struct {
	eng    *sim.Engine
	params Params
	rng    *rand.Rand

	busyUntil  sim.Time
	contenders int

	stations []*Station

	frames     int64
	collisions int64
	bytes      int64
	drops      int64
}

// NewEthernet creates an empty segment.
func NewEthernet(eng *sim.Engine, params Params) *Ethernet {
	return &Ethernet{
		eng:    eng,
		params: params,
		rng:    rand.New(rand.NewSource(params.Seed)),
	}
}

// Collisions returns the number of collision events observed.
func (e *Ethernet) Collisions() int64 { return e.collisions }

// Frames returns successfully transmitted frames.
func (e *Ethernet) Frames() int64 { return e.frames }

// Drops returns frames abandoned after maxAttempts excessive collisions.
func (e *Ethernet) Drops() int64 { return e.drops }

// RegisterMetrics exposes the segment's counters in reg.
func (e *Ethernet) RegisterMetrics(reg *trace.Registry) {
	reg.Func("lan.frames", func() float64 { return float64(e.frames) })
	reg.Func("lan.collisions", func() float64 { return float64(e.collisions) })
	reg.Func("lan.bytes", func() float64 { return float64(e.bytes) })
	reg.Func("lan.drops", func() float64 { return float64(e.drops) })
}

// AddStation attaches a node to the segment.
func (e *Ethernet) AddStation(name string) *Station {
	s := &Station{
		id:    len(e.stations),
		name:  name,
		eth:   e,
		CPU:   cab.NewCPU(e.eng),
		boxes: make(map[uint16]*boxState),
	}
	e.stations = append(e.stations, s)
	return s
}

// Station returns station i.
func (e *Ethernet) Station(i int) *Station { return e.stations[i] }

// transmit performs CSMA/CD medium acquisition and transmission of one
// frame from process context, returning when the frame is on the wire.
// It reports false if the frame was abandoned after maxAttempts
// consecutive collisions (Ethernet's excessive-collision error).
func (e *Ethernet) transmit(p *sim.Proc, frameBytes int) bool {
	attempt := 0
	for {
		// Carrier sense: defer while the medium is busy.
		if now := e.eng.Now(); now < e.busyUntil {
			p.Sleep(e.busyUntil - now)
			continue
		}
		// Vulnerable window: stations that begin within a slot of each
		// other collide.
		e.contenders++
		p.Sleep(e.params.SlotTime)
		collided := e.contenders > 1
		e.contenders--
		if collided {
			e.collisions++
			attempt++
			if attempt >= maxAttempts {
				e.drops++
				return false
			}
			k := attempt
			if k > 10 {
				k = 10
			}
			backoff := sim.Time(e.rng.Intn(1<<uint(k))) * e.params.SlotTime
			p.Sleep(backoff)
			continue
		}
		// Acquired: hold the medium for the frame.
		tx := sim.Time(frameBytes) * e.params.ByteTime
		e.busyUntil = e.eng.Now() + tx
		e.frames++
		e.bytes += int64(frameBytes)
		p.Sleep(tx)
		return true
	}
}

// boxState is one receive endpoint with reassembly.
type boxState struct {
	delivered *sim.Queue[Message]
	partial   map[partialKey]*partialMsg
}

type partialKey struct {
	src   int
	msgID uint32
}

type partialMsg struct {
	segs  map[uint32][]byte
	total uint32
	got   uint32
}

// Station is one host on the segment, with its own CPU and in-kernel
// protocol stack.
type Station struct {
	id    int
	name  string
	eth   *Ethernet
	CPU   *cab.CPU
	boxes map[uint16]*boxState

	nextMsg uint32
}

// ID returns the station's address.
func (s *Station) ID() int { return s.id }

// OpenBox creates a receive endpoint.
func (s *Station) OpenBox(box uint16) {
	s.boxes[box] = &boxState{
		delivered: sim.NewQueue[Message](s.eth.eng),
		partial:   make(map[partialKey]*partialMsg),
	}
}

// frame header inside the Ethernet payload: box, msgID, seq, total.
const msgHdrSize = 14

func encodeHdr(box uint16, msgID, seq, total uint32, payload []byte) []byte {
	buf := make([]byte, msgHdrSize+len(payload))
	binary.BigEndian.PutUint16(buf[0:], box)
	binary.BigEndian.PutUint32(buf[2:], msgID)
	binary.BigEndian.PutUint32(buf[6:], seq)
	binary.BigEndian.PutUint32(buf[10:], total)
	copy(buf[msgHdrSize:], payload)
	return buf
}

// Send transmits data to (dst, box) through the full conventional stack:
// system call, kernel copy, per-packet protocol processing, CSMA/CD
// medium, receive interrupt and processing per packet.
func (s *Station) Send(p *sim.Proc, dst *Station, box uint16, data []byte) {
	s.CPU.Compute(p, s.eth.params.Syscall)
	s.CPU.Compute(p, sim.Time(len(data))*s.eth.params.CopyByteTime)
	s.nextMsg++
	msgID := s.nextMsg
	maxp := s.eth.params.MaxPayload
	nsegs := (len(data) + maxp - 1) / maxp
	if nsegs == 0 {
		nsegs = 1
	}
	for i := 0; i < nsegs; i++ {
		lo := i * maxp
		hi := lo + maxp
		if hi > len(data) {
			hi = len(data)
		}
		s.CPU.Compute(p, s.eth.params.PerPacket)
		wire := encodeHdr(box, msgID, uint32(i), uint32(len(data)), data[lo:hi])
		frameBytes := len(wire) + s.eth.params.FrameOverhead
		if frameBytes < 64 {
			frameBytes = 64 // Ethernet minimum frame
		}
		if !s.eth.transmit(p, frameBytes) {
			// Excessive collisions: the controller dropped the frame and
			// this in-kernel stack has no retransmission — the message
			// will never reassemble at the receiver.
			continue
		}
		// Deliver to the destination's interrupt handler.
		src := s.id
		dst.receiveFrame(src, wire)
	}
}

// receiveFrame runs the destination's interrupt-level receive path.
func (s *Station) receiveFrame(src int, wire []byte) {
	arrived := s.eth.eng.Now()
	s.CPU.Submit(cab.PrioInterrupt, s.eth.params.Interrupt, func() {
		s.CPU.Submit(cab.PrioInterrupt, s.eth.params.PerPacket, func() {
			s.reassemble(src, wire, arrived)
		})
	})
}

func (s *Station) reassemble(src int, wire []byte, arrived sim.Time) {
	if len(wire) < msgHdrSize {
		return
	}
	box := binary.BigEndian.Uint16(wire[0:])
	msgID := binary.BigEndian.Uint32(wire[2:])
	seq := binary.BigEndian.Uint32(wire[6:])
	total := binary.BigEndian.Uint32(wire[10:])
	payload := wire[msgHdrSize:]
	bx := s.boxes[box]
	if bx == nil {
		return
	}
	key := partialKey{src: src, msgID: msgID}
	pm := bx.partial[key]
	if pm == nil {
		pm = &partialMsg{segs: make(map[uint32][]byte), total: total}
		bx.partial[key] = pm
	}
	if _, dup := pm.segs[seq]; dup {
		return
	}
	pm.segs[seq] = payload
	pm.got += uint32(len(payload))
	if pm.got < pm.total {
		return
	}
	data := make([]byte, 0, pm.total)
	for i := uint32(0); ; i++ {
		sg, ok := pm.segs[i]
		if !ok {
			break
		}
		data = append(data, sg...)
	}
	delete(bx.partial, key)
	bx.delivered.Put(Message{Src: src, Data: data, Arrived: arrived})
}

// Recv blocks until a message arrives at box, paying the read-side system
// call and copy.
func (s *Station) Recv(p *sim.Proc, box uint16) Message {
	bx := s.boxes[box]
	if bx == nil {
		panic(fmt.Sprintf("lan: box %d not open on %s", box, s.name))
	}
	s.CPU.Compute(p, s.eth.params.Syscall)
	m := bx.delivered.Get(p)
	s.CPU.Compute(p, sim.Time(len(m.Data))*s.eth.params.CopyByteTime)
	return m
}
