package coll

import (
	"encoding/binary"

	"repro/internal/hub"
	"repro/internal/hub/comb"
	"repro/internal/kernel"
)

// CombMaxLanes bounds the payload the HUB-combining path accepts, in
// 8-byte lanes: each lane is one combining command, so large payloads are
// better served by the bandwidth-optimal endpoint algorithms.
const CombMaxLanes = 16

// combWait is the client-side wait bound on a combining verdict: twice the
// HUB straggler timeout, so every member of a group observes the same
// combined-vs-fallback verdict per lane.
const combWait = 2 * comb.DefaultTimeout

// combPlacement is the group's layout over the topology's HUBs, computed
// once at NewGroup when the system armed core.WithHubCombining. Hubs are
// ordered by their lowest member rank, so leaders (each hub's lowest
// local rank) ascend with hub index and everything below is a pure
// function of membership — fully deterministic.
type combPlacement struct {
	enabled bool
	tag     uint16  // system-unique slot tag (core.System.NextCombTag)
	multi   bool    // members span more than one HUB
	locals  [][]int // hub index -> member ranks on that hub, ascending
	leaders []int   // hub index -> leader rank (== locals[i][0])
	hubIdx  []int   // rank -> hub index
	localAt []int   // rank -> its index in locals[hubIdx[rank]]
}

// placeComb computes the combining placement. A dark system (combining
// off) leaves comb.enabled false and the group behaves exactly as before
// the feature existed.
func (g *Group) placeComb() {
	if !g.sys.Params.HubCombining || g.n < 2 {
		return
	}
	byHub := make(map[int]int) // topo hub id -> hub index
	g.comb.hubIdx = make([]int, g.n)
	g.comb.localAt = make([]int, g.n)
	for r := 0; r < g.n; r++ {
		h := g.sys.Net.HubOf(g.members[r])
		hi, ok := byHub[h]
		if !ok {
			hi = len(g.comb.locals)
			byHub[h] = hi
			g.comb.locals = append(g.comb.locals, nil)
			g.comb.leaders = append(g.comb.leaders, r)
		}
		g.comb.localAt[r] = len(g.comb.locals[hi])
		g.comb.locals[hi] = append(g.comb.locals[hi], r)
		g.comb.hubIdx[r] = hi
	}
	g.comb.enabled = true
	g.comb.tag = g.sys.NextCombTag()
	g.comb.multi = len(g.comb.locals) > 1
}

// combWireOp maps a reduction operator to its combining opcode. Only the
// built-in commutative 8-byte-lane operators have wire-level equivalents.
func combWireOp(op Op) (hub.Opcode, bool) {
	if !op.Commutative || op.Elem != 8 {
		return 0, false
	}
	switch op.Name {
	case SumInt64.Name:
		return hub.OpCombSum, true
	case MaxInt64.Name:
		return hub.OpCombMax, true
	case SumFloat64.Name:
		return hub.OpCombFSum, true
	}
	return 0, false
}

// combEligible reports whether the combining path can run (op, size) on
// this group: engine armed, a wire-level operator, and a payload small
// enough that per-lane commands beat the endpoint algorithms.
func (g *Group) combEligible(op *Op, size int) bool {
	if !g.comb.enabled || op == nil {
		return false
	}
	if _, ok := combWireOp(*op); !ok {
		return false
	}
	return size >= 8 && size <= 8*CombMaxLanes
}

// combLocals is the part spanning the members that share this member's
// HUB, rooted at the hub leader (the lowest local rank).
func (c *Comm) combLocals() part {
	pl := &c.g.comb
	return part{ranks: pl.locals[pl.hubIdx[c.rank]], me: pl.localAt[c.rank]}
}

// combLeaders is the part spanning the per-hub leaders; only a leader may
// take part in it.
func (c *Comm) combLeaders() part {
	return part{ranks: c.g.comb.leaders, me: c.g.comb.hubIdx[c.rank]}
}

// combAllreduce is the hierarchical HUB-combining allreduce:
//
//  1. every member contributes each 8-byte lane to its local HUB's
//     combining engine (fan-in = members on that hub) and waits for the
//     verdict — on a single-HUB group whose every lane combines, this IS
//     the allreduce: one command and one reply per member per lane, with
//     no endpoint fan-in at all;
//  2. if any lane failed to combine (engine dark, slot flushed partial,
//     straggler timeout), the hub's members fold their original payloads
//     to the hub leader over the transport instead (treeReduce over the
//     locals) — the slot protocol guarantees all of a hub's members agree
//     on combined-vs-fallback per lane, so nobody double-counts;
//  3. on multi-HUB groups the per-hub leaders allreduce their partials
//     among themselves (rdAllreduce over the leaders);
//  4. leaders distribute the result down to their hub's members
//     (treeBcast over the locals).
//
// Steps 2-4 are the flat families' own tree and recursive-doubling
// functions run over a different part, under their own round tags.
//
// Degradation is total: with every HUB dark or every slot timing out this
// is an ordinary hierarchical allreduce over the reliable transport.
func (c *Comm) combAllreduce(th *kernel.Thread, seq uint32, op Op, data []byte) ([]byte, error) {
	g := c.g
	wireOp, _ := combWireOp(op)
	locals := c.combLocals()
	leader := locals.me == 0
	fanin := uint16(locals.n())
	lanes := len(data) / 8

	// Phase 1: contribute every lane to the local HUB.
	out := make([]byte, len(data))
	localOK := true
	for l := 0; l < lanes; l++ {
		operand := binary.LittleEndian.Uint64(data[8*l:])
		val, combined, err := c.st.DL.CombContribute(th, wireOp, byte(g.id), byte(l),
			g.comb.tag, fanin, seq, operand, combWait)
		if err != nil || !combined {
			localOK = false
			continue
		}
		binary.LittleEndian.PutUint64(out[8*l:], val)
	}
	if localOK {
		g.reg.Counter("coll.comb.hub_combined").Inc()
	} else {
		g.reg.Counter("coll.comb.fallback").Inc()
		// Phase 2: endpoint fallback — fold the hub's original payloads
		// to the leader. Never mix hub-combined lanes with folded ones.
		red, err := c.treeReduce(th, seq, locals, op, rCombFix, data)
		if err != nil {
			return nil, err
		}
		if leader {
			out = red
		}
	}

	// Phase 3: leaders allreduce their per-hub partials across HUBs via
	// recursive doubling (half the rounds of a reduce-then-broadcast).
	if g.comb.multi && leader {
		var err error
		if out, err = c.rdAllreduce(th, seq, c.combLeaders(), op, rdLeaders, out); err != nil {
			return nil, err
		}
	}

	// Phase 4: distribute the result down within each hub. On a
	// single-HUB group whose lanes all combined, the HUB reply already
	// was the global result and no endpoint traffic happens at all.
	if g.comb.multi || !localOK {
		var err error
		if out, err = c.treeBcast(th, seq, locals, rCombRes, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// combBarrier is the hierarchical HUB-combining barrier: each member
// reports presence to its local HUB's combining engine (barrier ack
// aggregation — the slot completes when all of the hub's members have
// arrived), leaders disseminate among themselves on multi-HUB groups,
// and leaders release their hub's members. On a single-HUB group whose
// slot completes, the barrier costs one command + one reply per member.
func (c *Comm) combBarrier(th *kernel.Thread, seq uint32) error {
	g := c.g
	locals := c.combLocals()
	fanin := uint16(locals.n())

	_, combined, err := c.st.DL.CombContribute(th, hub.OpCombBarrier, byte(g.id), 0,
		g.comb.tag, fanin, seq, 0, combWait)
	localOK := err == nil && combined
	if localOK {
		g.reg.Counter("coll.comb.hub_combined").Inc()
	} else {
		g.reg.Counter("coll.comb.fallback").Inc()
		// Endpoint fallback: signal up to the hub leader.
		if _, e := c.treeReduce(th, seq, locals, noop, rCombFix, []byte{0}); e != nil {
			return e
		}
	}

	if g.comb.multi && locals.me == 0 {
		// Dissemination among leaders: after ceil(log2 n) rounds every
		// leader has transitively heard from every hub.
		if e := c.dissemBarrier(th, seq, c.combLeaders(), rCombBar); e != nil {
			return e
		}
	}

	if g.comb.multi || !localOK {
		// Leaders release their hub's members.
		if _, e := c.treeBcast(th, seq, locals, rCombRes, nil); e != nil {
			return e
		}
	}
	return nil
}
