package transport

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/cab"
	"repro/internal/sim"
)

func TestHeaderClassDeadlineRoundTrip(t *testing.T) {
	h := &Header{
		Proto: ProtoStream, Class: ClassBulk,
		Src: 3, Dst: 4, SrcBox: 5, DstBox: 6,
		MsgID: 7, Seq: 8, Total: 900, Offset: 100,
		Deadline: 12345 * sim.Microsecond,
	}
	pay := []byte("deadline-stamped payload")
	wire := Encode(h, pay)
	if len(wire) != HeaderSize+DeadlineExtSize+len(pay) {
		t.Fatalf("wire length %d, want fixed %d + ext %d + payload %d",
			len(wire), HeaderSize, DeadlineExtSize, len(pay))
	}
	if wireClass(wire) != ClassBulk {
		t.Fatalf("wireClass = %v", wireClass(wire))
	}
	if wireDeadline(wire) != h.Deadline {
		t.Fatalf("wireDeadline = %v, want %v", wireDeadline(wire), h.Deadline)
	}
	got, gotPay, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got != *h {
		t.Fatalf("decoded %+v, want %+v", got, h)
	}
	if !bytes.Equal(gotPay, pay) {
		t.Fatal("payload corrupted")
	}
}

func TestHeaderNoDeadlineKeepsLegacyWireFormat(t *testing.T) {
	// The zero SendOpts must encode exactly like pre-overload traffic: no
	// extension, byte 1 stays the reserved zero it always was.
	wire := Encode(&Header{Proto: ProtoDatagram, Src: 1, Dst: 2}, []byte("x"))
	if len(wire) != HeaderSize+1 {
		t.Fatalf("unstamped wire length %d, want %d", len(wire), HeaderSize+1)
	}
	if wire[1] != 0 {
		t.Fatalf("byte 1 = %#x, want 0 for normal class without deadline", wire[1])
	}
	if wireClass(wire) != ClassNormal || wireDeadline(wire) != 0 {
		t.Fatal("legacy wire misread")
	}
}

// rawPacket builds a fixed-size packet with an arbitrary byte-1 value and a
// valid checksum, to reach Decode's validation branches behind the checksum.
func rawPacket(size int, b1 byte, deadline uint64) []byte {
	buf := make([]byte, size)
	buf[0] = byte(ProtoDatagram)
	buf[1] = b1
	paylen := size - HeaderSize
	if b1&flagDeadline != 0 && size >= HeaderSize+DeadlineExtSize {
		binary.BigEndian.PutUint64(buf[HeaderSize:], deadline)
		paylen -= DeadlineExtSize
	}
	if paylen < 0 {
		paylen = 0
	}
	binary.BigEndian.PutUint32(buf[26:], uint32(paylen))
	binary.BigEndian.PutUint16(buf[30:], cab.ChecksumExcluding(buf, 30))
	return buf
}

func TestDecodeRejectsBadClass(t *testing.T) {
	if _, _, err := Decode(rawPacket(HeaderSize, 0x05, 0)); err == nil {
		t.Fatal("class 5 accepted")
	}
}

func TestDecodeRejectsTruncatedDeadlineExtension(t *testing.T) {
	// Deadline flag set on a packet too short to carry the extension must
	// be an error, never a panic.
	if _, _, err := Decode(rawPacket(HeaderSize, flagDeadline, 0)); err == nil {
		t.Fatal("truncated deadline extension accepted")
	}
	if _, _, err := Decode(rawPacket(HeaderSize+4, flagDeadline, 0)); err == nil {
		t.Fatal("half a deadline extension accepted")
	}
}

func TestDecodeRejectsNonPositiveDeadline(t *testing.T) {
	if _, _, err := Decode(rawPacket(HeaderSize+DeadlineExtSize, flagDeadline, 0)); err == nil {
		t.Fatal("zero deadline with flag set accepted")
	}
	neg := uint64(1) << 63 // negative sim.Time
	if _, _, err := Decode(rawPacket(HeaderSize+DeadlineExtSize, flagDeadline, neg)); err == nil {
		t.Fatal("negative deadline accepted")
	}
}

func TestWireHelpersTolerateGarbage(t *testing.T) {
	if wireClass(nil) != ClassNormal || wireClass([]byte{1}) != ClassNormal {
		t.Fatal("short wireClass")
	}
	if wireClass([]byte{0, 0x7F}) != ClassNormal {
		t.Fatal("out-of-range wire class must fall back to normal")
	}
	if wireDeadline([]byte{0, flagDeadline}) != 0 {
		t.Fatal("short wireDeadline")
	}
}

// FuzzHeaderDecode feeds arbitrary bytes to Decode: it must never panic,
// and any packet it accepts must re-encode byte-identically (the header is
// a faithful, canonical view of the wire).
func FuzzHeaderDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, HeaderSize-1))
	f.Add(Encode(&Header{Proto: ProtoRequest, Src: 1, Dst: 2, SrcBox: 3, DstBox: 4, MsgID: 5}, []byte("hello")))
	f.Add(Encode(&Header{Proto: ProtoStream, Class: ClassBulk, Deadline: sim.Millisecond, Seq: 2, Total: 100}, make([]byte, 64)))
	f.Add(Encode(&Header{Proto: ProtoVSend, Class: ClassCritical, Deadline: 1}, nil))
	f.Add(rawPacket(HeaderSize, 0x05, 0))
	f.Add(rawPacket(HeaderSize+4, flagDeadline, 0))
	f.Add(rawPacket(HeaderSize+DeadlineExtSize, flagDeadline, 0))
	corrupt := Encode(&Header{Proto: ProtoResponse, MsgID: 9}, []byte("abc"))
	corrupt[12] ^= 0xFF
	f.Add(corrupt)
	f.Add(Encode(&Header{Proto: ProtoDatagram, Src: 7, Dst: 8, MsgID: 0xFFFF}, bytes.Repeat([]byte{0xFF}, 40)))
	trunc := Encode(&Header{Proto: ProtoStream, Class: ClassNormal, Deadline: sim.Second}, []byte("abcdef"))
	f.Add(trunc[:HeaderSize+3])

	f.Fuzz(func(t *testing.T, data []byte) {
		h, payload, err := Decode(data)
		if err != nil {
			return // rejected cleanly
		}
		if h.Class >= NumClasses {
			t.Fatalf("Decode accepted class %d", h.Class)
		}
		if wireClass(data) != h.Class || wireDeadline(data) != h.Deadline {
			t.Fatalf("wire helpers disagree with Decode: class %v/%v deadline %v/%v",
				wireClass(data), h.Class, wireDeadline(data), h.Deadline)
		}
		re := Encode(&h, payload)
		if !bytes.Equal(re, data) {
			t.Fatalf("re-encode not byte-identical:\n in  %x\n out %x", data, re)
		}
		// Built in a reused body, whose stale bytes read 0x5A, the wire
		// must come out the same (0xFF would hide a stale checksum field:
		// 0xFFFF is zero to a ones'-complement sum).
		if into := encodeInto(bytes.Repeat([]byte{0x5A}, len(data)), &h, payload); !bytes.Equal(into, data) {
			t.Fatalf("encodeInto over a used body not byte-identical:\n in  %x\n out %x", data, into)
		}
	})
}
