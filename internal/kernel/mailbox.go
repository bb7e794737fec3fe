package kernel

import (
	"fmt"

	"repro/internal/cab"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Message is one message buffered in a mailbox. Its bytes live in CAB data
// memory at Addr (real bytes, written by DMA or by threads).
type Message struct {
	ID      uint64
	Addr    cab.Addr
	Len     int
	Src     int    // source CAB id (filled by the transport)
	SrcBox  uint16 // source mailbox (filled by the transport)
	Tag     uint32 // application tag / message type
	Arrived sim.Time
	// Class is the message's priority class (transport wire byte; 0 =
	// normal) and Deadline the absolute virtual time after which the work
	// is worthless (0 = none). Both are filled by the transport at
	// delivery when overload control is armed.
	Class    uint8
	Deadline sim.Time
	// Span is the delivered message's trace span (nil when untraced);
	// consumers that move the message further (e.g. up a VME bus to a
	// node) parent their spans under it.
	Span *trace.Span

	mb        *Mailbox
	committed bool
}

// Expired reports whether the message carries a deadline that has already
// passed at virtual time now — a server should Release it unserved (the
// kernel-mailbox queueing point of deadline propagation).
func (m *Message) Expired(now sim.Time) bool {
	return m.Deadline != 0 && now >= m.Deadline
}

// Bytes reads the message body out of CAB memory (kernel domain).
func (m *Message) Bytes() []byte {
	if m.Len == 0 {
		return nil
	}
	b, err := m.mb.k.board.Mem.Read(cab.KernelDomain, m.Addr, m.Len)
	if err != nil {
		panic(fmt.Sprintf("kernel: message read failed: %v", err))
	}
	return b
}

// Mailbox is the CAB kernel's message buffer abstraction (paper §6.1):
// "temporary buffer space for messages... In the common single-reader,
// single-writer case, allocating and reclaiming space is simple because
// mailboxes behave like FIFOs. Mailboxes also support multiple readers,
// multiple writers, and out-of-order reads."
type Mailbox struct {
	k        *Kernel
	name     string
	capacity int // bytes of CAB memory this mailbox may hold
	used     int
	msgs     []*Message
	nextID   uint64

	notEmpty Cond
	notFull  Cond

	puts, gets int64
}

// NewMailbox creates a mailbox bounded to capacity bytes of CAB memory.
// With a metrics registry attached, occupancy read-outs auto-register as
// <board>.mailbox.<name>.{msgs,bytes,puts,gets}.
func (k *Kernel) NewMailbox(name string, capacity int) *Mailbox {
	m := &Mailbox{
		k:        k,
		name:     name,
		capacity: capacity,
	}
	if k.reg != nil {
		prefix := k.board.Name() + ".mailbox." + name
		k.reg.Func(prefix+".msgs", func() float64 { return float64(len(m.msgs)) })
		k.reg.Func(prefix+".bytes", func() float64 { return float64(m.used) })
		k.reg.Func(prefix+".puts", func() float64 { return float64(m.puts) })
		k.reg.Func(prefix+".gets", func() float64 { return float64(m.gets) })
	}
	k.boxes = append(k.boxes, m)
	return m
}

// Name returns the mailbox name.
func (m *Mailbox) Name() string { return m.name }

// Len returns the number of buffered messages.
func (m *Mailbox) Len() int { return len(m.msgs) }

// UsedBytes returns the CAB memory held by buffered messages.
func (m *Mailbox) UsedBytes() int { return m.used }

// Capacity returns the mailbox's byte bound.
func (m *Mailbox) Capacity() int { return m.capacity }

// Classify labels a committed message with its priority class and
// deadline. The transport calls it right after delivery (TryPut commits
// before the wire header's class is known).
func (m *Mailbox) Classify(msg *Message, class uint8, deadline sim.Time) {
	msg.Class = class
	msg.Deadline = deadline
}

// Reserve allocates space for an incoming message before its data arrives
// (the datalink upcall "uses the transport header to determine the
// destination mailbox for the packet", then DMA fills it). It does not
// block and fails when the mailbox is full — the caller drops the packet
// and lets the transport recover. The reserved message is invisible to
// readers until Commit.
func (m *Mailbox) Reserve(n int) (*Message, error) {
	if m.used+n > m.capacity {
		return nil, fmt.Errorf("kernel: mailbox %s full (%d+%d > %d)", m.name, m.used, n, m.capacity)
	}
	var addr cab.Addr
	if n > 0 {
		var err error
		addr, err = m.k.board.Mem.Alloc(n)
		if err != nil {
			return nil, err
		}
	}
	m.used += n
	m.nextID++
	return &Message{ID: m.nextID, Addr: addr, Len: n, mb: m}, nil
}

// Commit makes a reserved message visible to readers.
func (m *Mailbox) Commit(msg *Message) {
	if msg.committed {
		panic("kernel: double commit")
	}
	msg.committed = true
	msg.Arrived = m.k.eng.Now()
	m.msgs = append(m.msgs, msg)
	m.puts++
	m.notEmpty.Signal()
}

// Put writes data into a new message, blocking the thread while the mailbox
// is full.
func (m *Mailbox) Put(t *Thread, data []byte, src int, tag uint32) (*Message, error) {
	for m.used+len(data) > m.capacity {
		m.notFull.Wait(t)
	}
	msg, err := m.Reserve(len(data))
	if err != nil {
		return nil, err
	}
	if err := m.write(msg, data); err != nil {
		return nil, err
	}
	msg.Src = src
	msg.Tag = tag
	m.Commit(msg)
	return msg, nil
}

// write stores data into a reserved message (no-op for empty messages).
func (m *Mailbox) write(msg *Message, data []byte) error {
	if len(data) == 0 {
		return nil
	}
	return m.k.board.Mem.Write(cab.KernelDomain, msg.Addr, data)
}

// TryPut is Put for event/interrupt context: it never blocks and reports
// whether the message was stored.
func (m *Mailbox) TryPut(data []byte, src int, tag uint32) (*Message, bool) {
	msg, err := m.Reserve(len(data))
	if err != nil {
		return nil, false
	}
	if err := m.write(msg, data); err != nil {
		return nil, false
	}
	msg.Src = src
	msg.Tag = tag
	m.Commit(msg)
	return msg, true
}

// Get removes and returns the oldest message, blocking while empty.
func (m *Mailbox) Get(t *Thread) *Message {
	for len(m.msgs) == 0 {
		m.notEmpty.Wait(t)
	}
	return m.pop(0)
}

// GetTimeout is Get with a deadline; ok is false on timeout.
func (m *Mailbox) GetTimeout(t *Thread, d sim.Time) (*Message, bool) {
	deadline := m.k.eng.Now() + d
	for len(m.msgs) == 0 {
		if !m.notEmpty.WaitUntil(t, deadline) {
			return nil, false
		}
	}
	return m.pop(0), true
}

// TryGet removes the oldest message without blocking.
func (m *Mailbox) TryGet() (*Message, bool) {
	if len(m.msgs) == 0 {
		return nil, false
	}
	return m.pop(0), true
}

// GetByID removes a specific message (out-of-order read), blocking until a
// message with that ID is present.
func (m *Mailbox) GetByID(t *Thread, id uint64) *Message {
	for {
		for i, msg := range m.msgs {
			if msg.ID == id {
				return m.pop(i)
			}
		}
		m.notEmpty.Wait(t)
	}
}

// GetMatch removes the oldest message satisfying pred, blocking until one
// appears (used by servers picking work out of a shared mailbox).
func (m *Mailbox) GetMatch(t *Thread, pred func(*Message) bool) *Message {
	for {
		for i, msg := range m.msgs {
			if pred(msg) {
				return m.pop(i)
			}
		}
		m.notEmpty.Wait(t)
	}
}

// pop removes message i. The message's memory remains allocated until the
// consumer calls Release.
func (m *Mailbox) pop(i int) *Message {
	msg := m.msgs[i]
	m.msgs = append(m.msgs[:i], m.msgs[i+1:]...)
	m.gets++
	return msg
}

// Release frees a message's CAB memory and unblocks writers.
func (m *Mailbox) Release(msg *Message) {
	if msg.Len > 0 {
		m.k.board.Mem.Free(msg.Addr, msg.Len)
	}
	m.used -= msg.Len
	m.notFull.Broadcast()
}

// Purge discards every buffered (committed, not yet read) message — the
// crash-loss path: mailbox contents live in CAB memory and do not survive a
// board reset. Writers blocked on a full mailbox wake up and find space.
func (m *Mailbox) Purge() {
	for len(m.msgs) > 0 {
		msg := m.pop(0)
		m.gets-- // a purge is not a consumer read
		m.Release(msg)
	}
}

// Abort cancels a reserved-but-uncommitted message (e.g. its DMA was
// abandoned after a checksum failure).
func (m *Mailbox) Abort(msg *Message) {
	if msg.committed {
		panic("kernel: abort of committed message")
	}
	m.Release(msg)
}
