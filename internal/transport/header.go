// Package transport implements the Nectar transport protocols (paper
// §6.2.2): the unreliable datagram protocol, the reliable byte-stream
// protocol (acknowledgments, retransmissions, and a sliding window for flow
// control), and the request-response protocol for client-server
// interaction. The transport layer "is responsible for message transfer
// between mailboxes on different CABs. This involves breaking messages into
// packets, reassembling messages, flow control, and retransmission of lost
// and damaged packets."
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/cab"
	"repro/internal/sim"
)

// Proto identifies the protocol of a packet.
type Proto byte

// Wire protocols.
const (
	ProtoDatagram Proto = 1 + iota
	ProtoStream
	ProtoStreamAck
	ProtoRequest
	ProtoResponse
	ProtoVSend  // VMTP transaction request group
	ProtoVResp  // VMTP transaction response group
	ProtoVNack  // VMTP selective-retransmission mask
	ProtoPing   // peer liveness heartbeat
	ProtoPong   // heartbeat reply
	ProtoReject // overload fast-reject: the receiver refused admission
)

// String returns the protocol name.
func (p Proto) String() string {
	switch p {
	case ProtoDatagram:
		return "datagram"
	case ProtoStream:
		return "stream"
	case ProtoStreamAck:
		return "stream-ack"
	case ProtoRequest:
		return "request"
	case ProtoResponse:
		return "response"
	case ProtoVSend:
		return "vmtp-send"
	case ProtoVResp:
		return "vmtp-resp"
	case ProtoVNack:
		return "vmtp-nack"
	case ProtoPing:
		return "ping"
	case ProtoPong:
		return "pong"
	case ProtoReject:
		return "reject"
	default:
		return fmt.Sprintf("proto(%d)", byte(p))
	}
}

// Class is a message priority class, stamped by the application layer and
// carried in the wire header. ClassNormal is the zero value: a header that
// never sets a class encodes exactly as before classes existed, so runs
// with the overload-control subsystem disabled stay byte-identical.
type Class uint8

// Priority classes, lowest wire value first. Scheduling precedence is
// Critical > Normal > Bulk (see classPrecedence); shedding under overload
// goes the other way, Bulk first, and never touches Critical.
const (
	ClassNormal Class = iota
	ClassCritical
	ClassBulk
	// NumClasses bounds the class space; Decode rejects anything higher.
	NumClasses = 3
)

// classPrecedence orders classes for the weighted-deficit scheduler,
// highest priority first.
var classPrecedence = [NumClasses]Class{ClassCritical, ClassNormal, ClassBulk}

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassNormal:
		return "normal"
	case ClassCritical:
		return "critical"
	case ClassBulk:
		return "bulk"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// HeaderSize is the encoded fixed transport header length. Headers carrying
// a deadline append a DeadlineExtSize extension after the fixed part.
const HeaderSize = 32

// DeadlineExtSize is the optional deadline extension appended after the
// fixed header when Header.Deadline is set (flagDeadline in byte 1).
const DeadlineExtSize = 8

// Byte 1 of the wire header: low bits carry the priority class, the top
// bit flags the deadline extension. Both zero in pre-overload traffic, so
// the byte stays the reserved zero it always was.
const (
	flagDeadline = 0x80
	classMask    = 0x7F
)

// AckDone is the Seq value in a stream ack meaning "message fully
// received".
const AckDone = 0xFFFFFFFF

// Header is the transport packet header. The checksum covers the header
// (with the checksum field zeroed) and the payload; the CAB computes and
// verifies it in hardware during DMA ("hardware checksum computation
// removes this burden from protocol software", §5.1), so no CPU cost is
// charged for it.
type Header struct {
	Proto  Proto
	Class  Class  // priority class (byte 1, low bits)
	Src    uint16 // source CAB id
	Dst    uint16 // destination CAB id
	SrcBox uint16 // source mailbox
	DstBox uint16 // destination mailbox
	MsgID  uint32 // message / request identifier
	Seq    uint32 // packet index within the message (streams)
	Total  uint32 // total message length in bytes
	Offset uint32 // byte offset of this packet's payload
	// Deadline is the absolute virtual time after which the message is
	// worthless (0: none). Carried in an 8-byte extension after the fixed
	// header so deadline-free traffic keeps the pre-extension wire format.
	Deadline sim.Time
}

// extSize returns the extension bytes this header encodes with.
func (h *Header) extSize() int {
	if h.Deadline != 0 {
		return DeadlineExtSize
	}
	return 0
}

// encodeInto builds the wire packet in buf: header, optional deadline
// extension, checksum, payload. buf's length is the wire's, and its bytes
// may hold anything (a reused body). It returns buf.
func encodeInto(buf []byte, h *Header, payload []byte) []byte {
	ext := h.extSize()
	buf[0] = byte(h.Proto)
	b1 := byte(h.Class) & classMask
	if ext != 0 {
		b1 |= flagDeadline
	}
	buf[1] = b1
	binary.BigEndian.PutUint16(buf[2:], h.Src)
	binary.BigEndian.PutUint16(buf[4:], h.Dst)
	binary.BigEndian.PutUint16(buf[6:], h.SrcBox)
	binary.BigEndian.PutUint16(buf[8:], h.DstBox)
	binary.BigEndian.PutUint32(buf[10:], h.MsgID)
	binary.BigEndian.PutUint32(buf[14:], h.Seq)
	binary.BigEndian.PutUint32(buf[18:], h.Total)
	binary.BigEndian.PutUint32(buf[22:], h.Offset)
	binary.BigEndian.PutUint32(buf[26:], uint32(len(payload)))
	if ext != 0 {
		binary.BigEndian.PutUint64(buf[HeaderSize:], uint64(h.Deadline))
	}
	copy(buf[HeaderSize+ext:], payload)
	// Checksum computed with its own field (30:32) zero; it covers the
	// extension and payload too. A reused body still holds its last
	// checksum there, so the field is cleared first.
	buf[30], buf[31] = 0, 0
	binary.BigEndian.PutUint16(buf[30:], cab.Checksum(buf))
	return buf
}

// errChecksum reports a packet damaged in transit. Damage is routine on a
// lossy fiber, so the one error value is shared rather than built per
// packet.
var errChecksum = errors.New("transport: checksum mismatch")

// Decode parses and verifies a wire packet. A checksum mismatch (payload
// damaged in transit) is reported as an error; the caller drops the packet
// and relies on protocol recovery. Malformed class or deadline fields —
// including a deadline flag on a packet too short to carry the extension —
// are rejected the same way, never with a panic. The header is returned by
// value, so a receiver that does not keep it decodes without allocating.
func Decode(buf []byte) (Header, []byte, error) {
	if len(buf) < HeaderSize {
		return Header{}, nil, fmt.Errorf("transport: short packet (%d bytes)", len(buf))
	}
	sum := binary.BigEndian.Uint16(buf[30:])
	// Verify with the checksum field excluded from the sum, the way the
	// hardware does on the fly during DMA — no scratch copy per packet.
	if cab.ChecksumExcluding(buf, 30) != sum {
		return Header{}, nil, errChecksum
	}
	h := Header{
		Proto:  Proto(buf[0]),
		Class:  Class(buf[1] & classMask),
		Src:    binary.BigEndian.Uint16(buf[2:]),
		Dst:    binary.BigEndian.Uint16(buf[4:]),
		SrcBox: binary.BigEndian.Uint16(buf[6:]),
		DstBox: binary.BigEndian.Uint16(buf[8:]),
		MsgID:  binary.BigEndian.Uint32(buf[10:]),
		Seq:    binary.BigEndian.Uint32(buf[14:]),
		Total:  binary.BigEndian.Uint32(buf[18:]),
		Offset: binary.BigEndian.Uint32(buf[22:]),
	}
	if h.Class >= NumClasses {
		return Header{}, nil, fmt.Errorf("transport: bad priority class %d", h.Class)
	}
	off := HeaderSize
	if buf[1]&flagDeadline != 0 {
		if len(buf) < HeaderSize+DeadlineExtSize {
			return Header{}, nil, fmt.Errorf("transport: truncated deadline extension (%d bytes)", len(buf))
		}
		h.Deadline = sim.Time(binary.BigEndian.Uint64(buf[HeaderSize:]))
		if h.Deadline <= 0 {
			return Header{}, nil, fmt.Errorf("transport: bad deadline %d", h.Deadline)
		}
		off += DeadlineExtSize
	}
	paylen := int(binary.BigEndian.Uint32(buf[26:]))
	payload := buf[off:]
	if paylen != len(payload) {
		return Header{}, nil, fmt.Errorf("transport: length mismatch: header %d, got %d",
			paylen, len(payload))
	}
	return h, payload, nil
}

// wireClass reads the priority class straight off an encoded packet.
func wireClass(wire []byte) Class {
	if len(wire) < 2 {
		return ClassNormal
	}
	c := Class(wire[1] & classMask)
	if c >= NumClasses {
		return ClassNormal
	}
	return c
}

// wireDeadline reads the deadline extension straight off an encoded packet
// (0 when absent).
func wireDeadline(wire []byte) sim.Time {
	if len(wire) < HeaderSize+DeadlineExtSize || wire[1]&flagDeadline == 0 {
		return 0
	}
	return sim.Time(binary.BigEndian.Uint64(wire[HeaderSize:]))
}
