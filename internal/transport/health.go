package transport

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/obs"
	"repro/internal/trace"
)

// Peer liveness. The reliable protocols retransmit on loss, but when a peer
// CAB has crashed, retransmission alone leaves senders retrying into a
// black hole. With Params.HeartbeatInterval set, the transport pings every
// peer that has reliable operations outstanding; after peerMisses
// heartbeats without a pong the peer is declared dead, every blocked sender
// to it is woken with ErrPeerDead, and new sends to it fail fast. Dead
// peers keep being pinged so a reboot is noticed and the peer revived.
//
// Heartbeats run only while the watch set is non-empty, so an idle or
// fully-healthy-and-quiet transport schedules no timer events — but while a
// dead peer is being watched for revival, events continue indefinitely
// (drive such runs with RunUntil).

// ErrPeerDead reports that the destination CAB stopped answering
// heartbeats (crashed or unreachable); blocked senders receive it instead
// of retrying forever.
type ErrPeerDead struct{ Peer int }

func (e *ErrPeerDead) Error() string {
	return fmt.Sprintf("transport: CAB %d is dead (heartbeats unanswered)", e.Peer)
}

// peerState tracks one watched peer.
type peerState struct {
	outstanding int // reliable ops currently blocked on this peer
	misses      int // heartbeats sent since the last pong
	dead        bool
}

// peerGate is the fail-fast check at the top of every reliable operation.
// It also (re)establishes the watch so a dead peer keeps being pinged.
func (t *Transport) peerGate(dst int) error {
	if t.params.HeartbeatInterval == 0 || dst == t.self {
		return nil
	}
	ps := t.watch[dst]
	if ps != nil && ps.dead {
		return &ErrPeerDead{Peer: dst}
	}
	return nil
}

// watchPeer registers an outstanding reliable operation to dst, starting
// the heartbeat timer if needed.
func (t *Transport) watchPeer(dst int) {
	if t.params.HeartbeatInterval == 0 || dst == t.self {
		return
	}
	ps := t.watch[dst]
	if ps == nil {
		ps = &peerState{}
		t.watch[dst] = ps
	}
	ps.outstanding++
	t.armHeartbeat()
}

// unwatchPeer drops an outstanding operation. Healthy idle peers leave the
// watch set (quiescing the timer); dead peers stay, pinged for revival.
func (t *Transport) unwatchPeer(dst int) {
	ps := t.watch[dst]
	if ps == nil {
		return
	}
	ps.outstanding--
	if ps.outstanding <= 0 && !ps.dead {
		delete(t.watch, dst)
	}
}

// armHeartbeat schedules the next heartbeat tick if one is not pending.
func (t *Transport) armHeartbeat() {
	if t.hbArmed || t.params.HeartbeatInterval == 0 || len(t.watch) == 0 {
		return
	}
	t.hbArmed = true
	t.k.Board().Timers.Arm(&t.hb, t.params.HeartbeatInterval, t.heartbeatTick)
}

// heartbeatTick runs at every heartbeat interval while peers are watched:
// it declares peers past the miss threshold dead and pings the rest (and
// the dead, hoping for revival).
func (t *Transport) heartbeatTick() {
	t.hbArmed = false
	peers := make([]int, 0, len(t.watch))
	for p := range t.watch {
		peers = append(peers, p)
	}
	sort.Ints(peers)
	for _, p := range peers {
		ps := t.watch[p]
		if !ps.dead && ps.misses >= peerMisses {
			t.markPeerDead(p, ps)
		}
		ps.misses++
		t.sendPing(p)
	}
	t.armHeartbeat()
}

// sendPing emits one heartbeat (interrupt fast path when free).
func (t *Transport) sendPing(dst int) {
	h := &Header{Proto: ProtoPing, Src: uint16(t.self), Dst: uint16(dst)}
	t.stats.PingsSent++
	t.enqueueControl(dst, t.wire(h, nil), nil)
}

// recvPing answers a heartbeat.
func (t *Transport) recvPing(h *Header, sp *trace.Span) {
	ph := &Header{Proto: ProtoPong, Src: uint16(t.self), Dst: uint16(h.Src)}
	t.enqueueControl(int(h.Src), t.wire(ph, nil), sp)
}

// recvPong processes a heartbeat reply: the peer is alive.
func (t *Transport) recvPong(h *Header) {
	t.stats.PongsRecv++
	ps := t.watch[int(h.Src)]
	if ps == nil {
		return
	}
	ps.misses = 0
	if ps.dead {
		ps.dead = false
		t.stats.PeersRevived++
		t.fr.Note(obs.FPeerAlive, t.frName, int64(h.Src), 0)
		if ps.outstanding <= 0 {
			delete(t.watch, int(h.Src))
		}
	}
}

// markPeerDead wakes every sender blocked on the peer with ErrPeerDead.
func (t *Transport) markPeerDead(peer int, ps *peerState) {
	ps.dead = true
	t.stats.PeersDied++
	t.fr.Note(obs.FPeerDead, t.frName, int64(peer), int64(ps.misses))
	t.failSenders(peer, &ErrPeerDead{Peer: peer})
}

// failSenders wakes every sender blocked on peer (-1: on any peer) with err
// — pending requests, stream senders, then VMTP transactions, each set in
// ascending key order so the wake-up order is deterministic.
func (t *Transport) failSenders(peer int, err error) {
	failOps(t.pending, peer, err)

	keys := make([]streamKey, 0, len(t.streamsOut))
	for k := range t.streamsOut {
		if peer < 0 || k.peer == peer {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].peer != keys[j].peer {
			return keys[i].peer < keys[j].peer
		}
		if keys[i].lbox != keys[j].lbox {
			return keys[i].lbox < keys[j].lbox
		}
		return keys[i].rbox < keys[j].rbox
	})
	for _, k := range keys {
		s := t.streamsOut[k]
		s.err = err
		s.cond.Broadcast()
	}

	if t.vm != nil {
		failOps(t.vm.pending, peer, err)
	}
}

// failOps fails, in ascending id order, the outstanding operations of one
// protocol that are addressed to peer (-1: all of them).
func failOps[P interface{ op() *pendingOp }](ops map[uint32]P, peer int, err error) {
	ids := make([]uint32, 0, len(ops))
	for id, p := range ops {
		if peer < 0 || p.op().dst == peer {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	for _, id := range ids {
		p := ops[id].op()
		p.err = err
		p.cond.Broadcast()
	}
}

// Crash discards the transport's in-flight state after a board crash:
// client-side operations error out (their threads observe the crash),
// server-side reassembly, duplicate-suppression caches, queued control
// packets, and the peer watch set are lost — so a request answered before
// the crash may be re-executed after it, exactly the at-most-once window a
// real response-cache loss opens. The gap timers of the lost groups stop
// with them; a timer left armed would NACK for the rest for good.
func (t *Transport) Crash() {
	t.failSenders(-1, fmt.Errorf("transport: CAB %d crashed", t.self))
	if vm := t.vm; vm != nil {
		for _, g := range vm.reqs {
			g.timer.Cancel()
		}
		for _, pend := range vm.pending {
			pend.resp.timer.Cancel()
		}
	}
	t.vm = nil
	t.streamsIn = make(map[streamKey]*streamRecv)
	t.once = newAtMostOnce(t.store)
	t.outq.Clear()
	t.watch = make(map[int]*peerState)
	if t.ovl != nil {
		// The classed send queue and breakers live in CAB memory: a
		// crash loses them like everything else.
		t.ovl = newOverload(t.params.HeartbeatInterval)
	}
}
