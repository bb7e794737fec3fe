package transport_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/transport"
)

// The caller's buffer contract: every send entry point copies data at
// Encode and never keeps or writes it. The caller here overwrites its
// buffer as soon as each call returns — a datagram is still on the wire
// then — and the bytes the peer's mailbox holds must be the original ones.
// This is what lets the load generator send every operation from one
// shared read-only buffer.
func TestSendersNeitherKeepNorWriteCallerBuffer(t *testing.T) {
	sys := core.New(core.SingleHub(2))
	srv := sys.CAB(1)
	const (
		dgBox uint16 = 1 + iota
		streamBox
		reqBox
		vmtpBox
	)
	boxes := map[uint16]*kernel.Mailbox{}
	for _, b := range []uint16{dgBox, streamBox, reqBox, vmtpBox} {
		boxes[b] = srv.Kernel.NewMailbox("in", 256<<10)
		srv.TP.Register(b, boxes[b])
	}
	// The servers answer but keep each request's message for the check.
	got := map[uint16]*kernel.Message{}
	srv.Kernel.SpawnDaemon("req-srv", func(th *kernel.Thread) {
		for {
			m := boxes[reqBox].Get(th)
			got[reqBox] = m
			srv.TP.Respond(th, m, []byte("ok"))
		}
	})
	srv.Kernel.SpawnDaemon("vmtp-srv", func(th *kernel.Thread) {
		for {
			m := boxes[vmtpBox].Get(th)
			got[vmtpBox] = m
			srv.TP.VRespond(th, m, []byte("ok"))
		}
	})

	sizes := map[uint16]int{dgBox: 900, streamBox: 5000, reqBox: 700, vmtpBox: 3000}
	want := map[uint16][]byte{}
	for b, n := range sizes {
		want[b] = payload(n)
	}
	tp := sys.CAB(0).TP
	send := []struct {
		box  uint16
		call func(th *kernel.Thread, data []byte) error
	}{
		{dgBox, func(th *kernel.Thread, data []byte) error {
			return tp.SendDatagram(th, 1, dgBox, 9, data)
		}},
		{streamBox, func(th *kernel.Thread, data []byte) error {
			return tp.StreamSendOpts(th, 1, streamBox, 9, data, transport.SendOpts{})
		}},
		{reqBox, func(th *kernel.Thread, data []byte) error {
			_, err := tp.RequestOpts(th, 1, reqBox, 9, data, transport.SendOpts{})
			return err
		}},
		{vmtpBox, func(th *kernel.Thread, data []byte) error {
			_, err := tp.VTransactOpts(th, 1, vmtpBox, 9, data, transport.SendOpts{})
			return err
		}},
	}
	sys.CAB(0).Kernel.Spawn("client", func(th *kernel.Thread) {
		for _, s := range send {
			buf := append([]byte(nil), want[s.box]...)
			if err := s.call(th, buf); err != nil {
				t.Errorf("box %d: %v", s.box, err)
			}
			if !bytes.Equal(buf, want[s.box]) {
				t.Errorf("box %d: the call wrote the caller's buffer", s.box)
			}
			for i := range buf {
				buf[i] = 0xEE
			}
		}
	})
	sys.Run()

	got[dgBox], _ = boxes[dgBox].TryGet()
	got[streamBox], _ = boxes[streamBox].TryGet()
	for _, s := range send {
		m := got[s.box]
		if m == nil {
			t.Fatalf("box %d: nothing delivered", s.box)
		}
		if b := m.Bytes(); !bytes.Equal(b, want[s.box]) {
			t.Errorf("box %d: the mailbox holds %d bytes that differ from the %d sent",
				s.box, len(b), len(want[s.box]))
		}
	}
}
