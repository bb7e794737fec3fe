package coll

import (
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/sim"
)

// The HUB hardware-multicast broadcast (paper §4.2.2/§4.2.4): the root
// injects ONE copy of the payload, which the crossbar fan-out tree
// replicates toward every member — versus log2(n) serialized copies on
// the root's fiber for the binomial tree. The multicast datagram itself
// is unreliable, so delivery is confirmed by ack aggregation:
//
//  1. Every member that receives the copy sets its bit in an ack bitmap,
//     waits (bounded by ackTimeout per child) for its children's bitmaps
//     in a binomial tree rooted at the sender, merges them, and sends
//     one combined ack — an unreliable datagram — to its tree parent.
//     Aggregation keeps the root's ack load at log2(n) messages instead
//     of n-1.
//  2. The root merges bitmaps until full or until the grace period runs
//     out, then retransmits the payload over the reliable byte-stream
//     transport to exactly the missing members (the "losers"): stream
//     delivery is itself acknowledged, so no second ack round is needed.
//
// A member whose multicast copy was lost never acks, so its whole
// subtree's bits are missing at the root and the subtree is
// stream-retransmitted; members that already hold the data drop the
// duplicate by sequence number. Lost acks degrade the same way — an
// unnecessary but harmless retransmission. Either way every member ends
// up with the payload, and the schedule stays deterministic.

// ackTimeout bounds each level of multicast ack aggregation: how long a
// member waits for a child's ack bitmap before reporting without it, and
// how long the root's grace period for late acks lasts before it
// retransmits to the missing members over reliable streams.
const ackTimeout = 150 * sim.Microsecond

// mcastBcast delivers data from root to every member over the hardware
// multicast, returning the payload at every member.
func (c *Comm) mcastBcast(th *kernel.Thread, seq uint32, root int, round uint16, data []byte) ([]byte, error) {
	g := c.g
	n := g.n
	p := c.whole(root)
	if p.v() == 0 {
		wire := c.encode(kMcast, seq, round, data)
		dsts := make([]int, 0, n-1)
		for r, cab := range g.members {
			if r != c.rank {
				dsts = append(dsts, cab)
			}
		}
		g.reg.Counter("coll.mcast.sends").Inc()
		// Failures here (link down mid-flap) are recovered by the ack
		// protocol below, exactly like a dropped copy.
		_ = c.st.TP.SendDatagramMulticast(th, dsts, g.base+groupSlot, c.box, wire)

		bits := newBitset(n)
		bitsetSet(bits, c.rank)
		c.collectAcks(th, seq, p, bits)
		// Grace period: late acks (deep trees, congested links) may still
		// arrive and spare a retransmission.
		deadline := th.Proc().Now() + ackTimeout
		for !bitsetFull(bits, n) {
			remain := deadline - th.Proc().Now()
			if remain <= 0 {
				break
			}
			m, ok := c.recvMatch(th, ackPred(seq), remain)
			if !ok {
				break
			}
			bitsetOr(bits, m.data)
		}
		for r := 0; r < n; r++ {
			if bitsetHas(bits, r) {
				continue
			}
			g.reg.Counter("coll.mcast.stragglers").Inc()
			g.fr.Note(obs.FCollStraggler, c.st.Board.Name(), int64(r), int64(seq))
			if err := c.sendTo(th, r, kData, seq, round, data); err != nil {
				return nil, err
			}
			g.reg.Counter("coll.mcast.retransmits").Inc()
			g.fr.Note(obs.FCollRetrans, c.st.Board.Name(), int64(r), int64(seq))
		}
		return data, nil
	}

	// Non-root: wait for the multicast copy — or the root's reliable
	// retransmission of it, which carries the same seq and round.
	m, _ := c.recvMatch(th, func(h hdr) bool {
		return h.seq == seq && h.round == round && int(h.src) == root &&
			(h.kind == kMcast || h.kind == kData)
	}, -1)
	bits := newBitset(n)
	bitsetSet(bits, c.rank)
	c.collectAcks(th, seq, p, bits)
	parent := p.at(p.v() - p.subtree())
	ack := c.encode(kAck, seq, rAck, bits)
	_ = c.st.TP.SendDatagram(th, g.members[parent], g.base+uint16(parent), c.box, ack)
	return m.data, nil
}

// collectAcks waits (bounded) for one ack bitmap per binomial-tree child
// and merges whatever arrives into bits. Acks are not attributed to a
// particular child — any ack for this collective counts — so a slow
// child's bits can ride in during a later wait slot.
func (c *Comm) collectAcks(th *kernel.Thread, seq uint32, p part, bits []byte) {
	v, n := p.v(), p.n()
	for m2 := p.subtree() >> 1; m2 >= 1; m2 >>= 1 {
		if v+m2 >= n {
			continue
		}
		m, ok := c.recvMatch(th, ackPred(seq), ackTimeout)
		if !ok {
			continue
		}
		bitsetOr(bits, m.data)
	}
}

func ackPred(seq uint32) func(hdr) bool {
	return func(h hdr) bool { return h.kind == kAck && h.seq == seq }
}

// Ack bitmaps: one bit per rank.

func newBitset(n int) []byte { return make([]byte, (n+7)/8) }

func bitsetSet(b []byte, i int) { b[i/8] |= 1 << (i % 8) }

func bitsetHas(b []byte, i int) bool { return i/8 < len(b) && b[i/8]&(1<<(i%8)) != 0 }

func bitsetOr(dst, src []byte) {
	for i := 0; i < len(dst) && i < len(src); i++ {
		dst[i] |= src[i]
	}
}

func bitsetFull(b []byte, n int) bool {
	for i := 0; i < n; i++ {
		if !bitsetHas(b, i) {
			return false
		}
	}
	return true
}
