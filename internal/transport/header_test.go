package transport

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestHeaderRoundTrip(t *testing.T) {
	h := &Header{
		Proto: ProtoStream, Src: 3, Dst: 9,
		SrcBox: 10, DstBox: 20,
		MsgID: 12345, Seq: 7, Total: 99999, Offset: 6888,
	}
	payload := []byte("hello nectar")
	wire := Encode(h, payload)
	if len(wire) != HeaderSize+len(payload) {
		t.Fatalf("wire length %d", len(wire))
	}
	got, pl, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got != *h {
		t.Fatalf("decoded %+v, want %+v", got, h)
	}
	if !bytes.Equal(pl, payload) {
		t.Fatalf("payload %q", pl)
	}
}

func TestDecodeShortPacket(t *testing.T) {
	if _, _, err := Decode(make([]byte, HeaderSize-1)); err == nil {
		t.Fatal("short packet should fail")
	}
}

func TestDecodeDetectsCorruption(t *testing.T) {
	h := &Header{Proto: ProtoDatagram, Src: 1, Dst: 2, MsgID: 42}
	wire := Encode(h, []byte("payload bytes here"))
	for i := range wire {
		wire[i] ^= 0x40
		if _, _, err := Decode(wire); err == nil {
			t.Fatalf("corruption at byte %d undetected", i)
		}
		wire[i] ^= 0x40
	}
}

// TestDecodeDamagedPacketAllocs: a damaged packet is rejected without
// allocating, since a lossy fiber damages packets routinely.
func TestDecodeDamagedPacketAllocs(t *testing.T) {
	wire := Encode(&Header{Proto: ProtoDatagram, Src: 1, Dst: 2}, []byte("payload"))
	wire[len(wire)-1] ^= 0x40
	if allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := Decode(wire); err == nil {
			t.Fatal("damaged packet accepted")
		}
	}); allocs != 0 {
		t.Fatalf("Decode of a damaged packet allocates %.1f objects, want 0", allocs)
	}
}

func TestDecodeLengthMismatch(t *testing.T) {
	h := &Header{Proto: ProtoDatagram}
	wire := Encode(h, []byte("abc"))
	// Truncate the payload: checksum fails first; so instead extend it
	// (checksum also fails) — verify both paths reject.
	if _, _, err := Decode(wire[:len(wire)-1]); err == nil {
		t.Fatal("truncated packet accepted")
	}
	if _, _, err := Decode(append(append([]byte{}, wire...), 0)); err == nil {
		t.Fatal("extended packet accepted")
	}
}

// Property: Encode/Decode round-trips arbitrary headers and payloads.
func TestHeaderRoundTripProperty(t *testing.T) {
	f := func(src, dst, sbox, dbox uint16, msgID, seq, total, off uint32, payload []byte) bool {
		if len(payload) > MaxData {
			payload = payload[:MaxData]
		}
		h := &Header{
			Proto: ProtoRequest, Src: src, Dst: dst,
			SrcBox: sbox, DstBox: dbox,
			MsgID: msgID, Seq: seq, Total: total, Offset: off,
		}
		got, pl, err := Decode(Encode(h, payload))
		return err == nil && got == *h && bytes.Equal(pl, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestProtoString(t *testing.T) {
	for _, p := range []Proto{ProtoDatagram, ProtoStream, ProtoStreamAck, ProtoRequest, ProtoResponse, Proto(99)} {
		if p.String() == "" {
			t.Fatal("empty proto name")
		}
	}
}
