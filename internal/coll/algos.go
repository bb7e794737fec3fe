package coll

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/kernel"
)

// Phase rounds disambiguate the messages of one collective (all carrying
// the same seq). Multi-round algorithms add the round index to a base;
// bases are spaced 0x300 apart, far above MaxMembers rounds.
const (
	rBcast    uint16 = 0x01
	rReduce   uint16 = 0x02
	rGather   uint16 = 0x03
	rScatter  uint16 = 0x04
	rBarUp    uint16 = 0x05
	rBarRel   uint16 = 0x06
	rAck      uint16 = 0x07
	rFoldIn   uint16 = 0x10
	rFoldOut  uint16 = 0x11
	rCombFix  uint16 = 0x12   // combining fallback: local fold to the hub leader
	rCombRes  uint16 = 0x13   // combining: leader -> local members distribution
	rCombUp   uint16 = 0x14   // combining: leader power-of-two fold in
	rCombDown uint16 = 0x15   // combining: leader power-of-two fold out
	rRD       uint16 = 0x300  // + bit index
	rRingRS   uint16 = 0x600  // + ring step
	rRingAG   uint16 = 0x900  // + ring step
	rA2A      uint16 = 0xC00  // + rank offset
	rDissem   uint16 = 0xF00  // + dissemination round
	rCombBar  uint16 = 0x1200 // + leader dissemination round
	rCombRD   uint16 = 0x1500 // + leader recursive-doubling bit
)

// algo is a resolved algorithm family.
type algo int

const (
	aAuto algo = iota
	aTree
	aRD
	aRing
	aMcast
	aComb
)

// smallMax is the allreduce payload size (bytes) at or below which the
// latency-optimal recursive doubling is chosen; larger payloads use the
// bandwidth-optimal ring pipeline.
const smallMax = 4096

func algoName(a algo) string {
	switch a {
	case aTree:
		return "tree"
	case aRD:
		return "rd"
	case aRing:
		return "ring"
	case aMcast:
		return "mcast"
	case aComb:
		return "comb"
	default:
		return "auto"
	}
}

func parseAlgo(s string) (algo, error) {
	switch s {
	case "", "auto":
		return aAuto, nil
	case "tree":
		return aTree, nil
	case "rd":
		return aRD, nil
	case "ring":
		return aRing, nil
	case "mcast":
		return aMcast, nil
	case "comb":
		return aComb, nil
	}
	return 0, fmt.Errorf("coll: unknown algorithm %q (want tree, rd, ring, mcast, comb, or auto)", s)
}

// pick resolves the algorithm for one operation family. Forced families
// degrade gracefully: "mcast" without hardware-multicast capability,
// "comb" without combining-capable HUBs (or "ring" for an operation with
// no ring variant) fall back to the closest usable algorithm, so an
// override can never wedge a group.
//
// op is the reduction operator for reducing families (nil otherwise). A
// non-commutative operator is rejected from the rank-order-dependent
// families: rd, ring, and comb all fold contributions in an order that
// depends on rank layout, so forcing one of them panics, and auto
// selection routes to the tree (which folds in ascending rank order, safe
// for any associative operator).
func (g *Group) pick(fam string, size int, op *Op) algo {
	if op != nil && !op.Commutative {
		switch g.algo {
		case aRD, aRing, aComb:
			panic(fmt.Sprintf("nectar: coll: operator %q is not commutative, but the group forces the %q algorithm, which combines contributions in a rank-dependent order; use tree (or auto) for non-commutative operators",
				op.Name, algoName(g.algo)))
		}
	}
	var a algo
	switch fam {
	case "bcast":
		if (g.algo == aAuto || g.algo == aMcast) && g.mcastOK {
			a = aMcast
		} else {
			a = aTree
		}
	case "barrier":
		switch g.algo {
		case aTree:
			a = aTree
		case aRD, aRing:
			a = aRD
		case aComb:
			if g.comb.enabled {
				a = aComb
			} else {
				a = aRD
			}
		case aMcast:
			if g.mcastOK {
				a = aMcast
			} else {
				a = aRD
			}
		default: // auto: combining beats a software barrier when armed
			if g.comb.enabled {
				a = aComb
			} else if g.mcastOK {
				a = aMcast
			} else {
				a = aRD
			}
		}
	case "allreduce":
		switch g.algo {
		case aTree:
			a = aTree
		case aRD:
			a = aRD
		case aRing:
			a = aRing
		case aMcast:
			if g.mcastOK {
				a = aMcast
			} else {
				a = aRD
			}
		case aComb:
			if g.combEligible(op, size) {
				a = aComb
			} else if size <= smallMax {
				a = aRD
			} else {
				a = aRing
			}
		default:
			switch {
			case op != nil && !op.Commutative:
				a = aTree
			case g.combEligible(op, size):
				a = aComb
			case size <= smallMax:
				a = aRD
			default:
				a = aRing
			}
		}
	case "reduce":
		if (g.algo == aAuto || g.algo == aComb) && g.combEligible(op, size) {
			a = aComb
		} else {
			a = aTree
		}
	default: // gather, scatter, alltoall: tree / pairwise only
		a = aTree
	}
	g.countAlgo(fam, a)
	return a
}

func (c *Comm) checkRoot(root int) error {
	if root < 0 || root >= c.g.n {
		return fmt.Errorf("coll: root %d out of range 0..%d", root, c.g.n-1)
	}
	return nil
}

func (c *Comm) checkOp(op Op, data []byte) error {
	if op.Elem <= 0 || op.Combine == nil {
		return fmt.Errorf("coll: operator %q is malformed", op.Name)
	}
	if len(data)%op.Elem != 0 {
		return fmt.Errorf("coll: payload of %d bytes is not a multiple of %q's %d-byte element",
			len(data), op.Name, op.Elem)
	}
	return nil
}

// lowbit returns the lowest set bit of v (v > 0).
func lowbit(v int) int { return v & -v }

// part names who takes part in one tree, recursive-doubling or
// dissemination exchange, and where this member sits among them. ranks is
// a precomputed ascending list of group ranks (shared and read-only, so
// nothing is allocated per call), me this member's index in it, and root
// the index that plays virtual rank 0: virtual rank v sits at
// ranks[(v+root)%n], so rooting a tree at any participant is a rotation of
// the list, not a new one. The whole group, one HUB's members and the HUB
// leaders are all just parts.
type part struct {
	ranks    []int
	me, root int
}

// whole is the part spanning every member of the group, rooted at root.
func (c *Comm) whole(root int) part { return part{ranks: c.g.all, me: c.rank, root: root} }

func (p part) n() int { return len(p.ranks) }

// v returns this member's virtual (root-relative) rank.
func (p part) v() int { return (p.me - p.root + p.n()) % p.n() }

// at maps a virtual rank back to a group rank.
func (p part) at(v int) int { return p.ranks[(v+p.root)%p.n()] }

// subtree bounds the binomial subtree below this member: its children are
// the virtual ranks v+m for m = subtree/2, subtree/4, ... 1 that exist,
// and (for v > 0) its parent is v-subtree.
func (p part) subtree() int {
	if v := p.v(); v != 0 {
		return lowbit(v)
	}
	top := 1
	for top < p.n() {
		top <<= 1
	}
	return top
}

// rdTags are the phase rounds of one recursive-doubling allreduce: the
// power-of-two fold in and out, and the base of the per-bit exchanges.
type rdTags struct{ foldIn, foldOut, bit uint16 }

var (
	rdFlat    = rdTags{rFoldIn, rFoldOut, rRD}
	rdLeaders = rdTags{rCombUp, rCombDown, rCombRD}
)

// Barrier blocks until every member has entered it. Algorithms:
// hardware-multicast release (signal tree up to rank 0, one multicast
// down), or a dissemination barrier (log2(n) rounds, any n).
func (c *Comm) Barrier(th *kernel.Thread) error {
	return c.op(th, "barrier", func(seq uint32) error {
		if c.g.n == 1 {
			return nil
		}
		switch c.g.pick("barrier", 0, nil) {
		case aComb:
			return c.combBarrier(th, seq)
		case aMcast:
			if _, err := c.treeReduce(th, seq, c.whole(0), noop, rBarUp, []byte{0}); err != nil {
				return err
			}
			_, err := c.mcastBcast(th, seq, 0, rBarRel, nil)
			return err
		case aTree:
			if _, err := c.treeReduce(th, seq, c.whole(0), noop, rBarUp, []byte{0}); err != nil {
				return err
			}
			_, err := c.treeBcast(th, seq, c.whole(0), rBarRel, nil)
			return err
		default:
			return c.dissemBarrier(th, seq, c.whole(0), rDissem)
		}
	})
}

// Bcast delivers root's data to every member and returns it. Only the
// root's data argument is consulted; other members may pass nil.
func (c *Comm) Bcast(th *kernel.Thread, root int, data []byte) (out []byte, err error) {
	err = c.op(th, "bcast", func(seq uint32) error {
		if err := c.checkRoot(root); err != nil {
			return err
		}
		if c.g.n == 1 {
			out = append([]byte(nil), data...)
			return nil
		}
		var e error
		switch c.g.pick("bcast", len(data), nil) {
		case aMcast:
			out, e = c.mcastBcast(th, seq, root, rBcast, data)
		default:
			out, e = c.treeBcast(th, seq, c.whole(root), rBcast, data)
		}
		return e
	})
	return out, err
}

// Reduce folds every member's data with op; the result lands at root
// (other members return nil). All members must pass equal-length
// payloads, a multiple of op.Elem.
func (c *Comm) Reduce(th *kernel.Thread, root int, op Op, data []byte) (out []byte, err error) {
	err = c.op(th, "reduce", func(seq uint32) error {
		if err := c.checkRoot(root); err != nil {
			return err
		}
		if err := c.checkOp(op, data); err != nil {
			return err
		}
		var e error
		switch c.g.pick("reduce", len(data), &op) {
		case aComb:
			// The combining path is an allreduce; honor the reduce
			// contract by surfacing the result only at the root.
			var all []byte
			all, e = c.combAllreduce(th, seq, op, data)
			if e == nil && c.rank == root {
				out = all
			}
		default:
			out, e = c.treeReduce(th, seq, c.whole(root), op, rReduce, data)
		}
		return e
	})
	return out, err
}

// Allreduce folds every member's data with op and returns the result at
// every member. Algorithms: recursive doubling (small payloads, with a
// power-of-two fold for arbitrary n), ring reduce-scatter + allgather
// (large payloads), or reduce + broadcast (tree / multicast overrides).
func (c *Comm) Allreduce(th *kernel.Thread, op Op, data []byte) (out []byte, err error) {
	err = c.op(th, "allreduce", func(seq uint32) error {
		if err := c.checkOp(op, data); err != nil {
			return err
		}
		if c.g.n == 1 {
			out = append([]byte(nil), data...)
			return nil
		}
		var e error
		switch c.g.pick("allreduce", len(data), &op) {
		case aComb:
			out, e = c.combAllreduce(th, seq, op, data)
		case aRing:
			out, e = c.ringAllreduce(th, seq, op, data)
		case aTree, aMcast:
			red, re := c.treeReduce(th, seq, c.whole(0), op, rReduce, data)
			if re != nil {
				return re
			}
			if c.g.pick("bcast", len(data), nil) == aMcast {
				out, e = c.mcastBcast(th, seq, 0, rBcast, red)
			} else {
				out, e = c.treeBcast(th, seq, c.whole(0), rBcast, red)
			}
		default:
			out, e = c.rdAllreduce(th, seq, c.whole(0), op, rdFlat, data)
		}
		return e
	})
	return out, err
}

// Gather collects every member's payload at root, which returns them
// indexed by rank (other members return nil). Payload lengths may vary.
func (c *Comm) Gather(th *kernel.Thread, root int, data []byte) (out [][]byte, err error) {
	err = c.op(th, "gather", func(seq uint32) error {
		if err := c.checkRoot(root); err != nil {
			return err
		}
		bun, e := c.treeGather(th, seq, c.whole(root), rGather, data)
		if e != nil || bun == nil {
			return e
		}
		out = bundleSlice(bun, c.g.n)
		return nil
	})
	return out, err
}

// Scatter distributes root's parts (indexed by rank, exactly n entries
// at the root; ignored elsewhere) and returns each member its own part.
func (c *Comm) Scatter(th *kernel.Thread, root int, parts [][]byte) (out []byte, err error) {
	err = c.op(th, "scatter", func(seq uint32) error {
		if err := c.checkRoot(root); err != nil {
			return err
		}
		if c.rank == root && len(parts) != c.g.n {
			return fmt.Errorf("coll: scatter needs %d parts, got %d", c.g.n, len(parts))
		}
		var e error
		out, e = c.treeScatter(th, seq, c.whole(root), parts)
		return e
	})
	return out, err
}

// Alltoall performs the personalized all-to-all exchange: member i's
// parts[j] arrives as member j's result[i]. Every member passes exactly
// n parts; lengths may vary per pair.
func (c *Comm) Alltoall(th *kernel.Thread, parts [][]byte) (out [][]byte, err error) {
	err = c.op(th, "alltoall", func(seq uint32) error {
		n := c.g.n
		if len(parts) != n {
			return fmt.Errorf("coll: alltoall needs %d parts, got %d", n, len(parts))
		}
		out = make([][]byte, n)
		out[c.rank] = append([]byte(nil), parts[c.rank]...)
		for r := 1; r < n; r++ {
			to := (c.rank + r) % n
			from := (c.rank - r + n) % n
			round := rA2A + uint16(r)
			if err := c.sendTo(th, to, kData, seq, round, parts[to]); err != nil {
				return err
			}
			m := c.recvFrom(th, seq, from, round)
			out[from] = m.data
		}
		return nil
	})
	return out, err
}

// Allgather collects every member's payload and returns them at every
// member, indexed by rank (a gather to rank 0 followed by a broadcast
// of the bundle, which uses the hardware multicast when available).
func (c *Comm) Allgather(th *kernel.Thread, data []byte) (out [][]byte, err error) {
	err = c.op(th, "allgather", func(seq uint32) error {
		bun, e := c.treeGather(th, seq, c.whole(0), rGather, data)
		if e != nil {
			return e
		}
		var wire []byte
		if c.rank == 0 {
			wire = encodeBundle(bun)
		}
		if c.g.n > 1 {
			if c.g.pick("bcast", len(wire), nil) == aMcast {
				wire, e = c.mcastBcast(th, seq, 0, rBcast, wire)
			} else {
				wire, e = c.treeBcast(th, seq, c.whole(0), rBcast, wire)
			}
			if e != nil {
				return e
			}
		}
		out = bundleSlice(decodeBundle(wire), c.g.n)
		return nil
	})
	return out, err
}

// treeBcast pushes the root's data down the binomial tree over p and
// returns it at every participant.
func (c *Comm) treeBcast(th *kernel.Thread, seq uint32, p part, round uint16, data []byte) ([]byte, error) {
	v, top := p.v(), p.subtree()
	buf := data
	if v != 0 {
		buf = c.recvFrom(th, seq, p.at(v-top), round).data
	}
	for m := top >> 1; m >= 1; m >>= 1 {
		if v+m >= p.n() {
			continue
		}
		if err := c.sendTo(th, p.at(v+m), kData, seq, round, buf); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// treeReduce folds payloads up the binomial tree over p; the accumulated
// value surfaces at the root (nil elsewhere). Children are combined in
// ascending mask order, a deterministic association.
func (c *Comm) treeReduce(th *kernel.Thread, seq uint32, p part, op Op, round uint16, data []byte) ([]byte, error) {
	v := p.v()
	acc := append([]byte(nil), data...)
	for mask := 1; mask < p.n(); mask <<= 1 {
		if v&mask != 0 {
			return nil, c.sendTo(th, p.at(v-mask), kData, seq, round, acc)
		}
		if v+mask < p.n() {
			m := c.recvFrom(th, seq, p.at(v+mask), round)
			op.Combine(acc, m.data)
		}
	}
	return acc, nil
}

// dissemBarrier runs the dissemination barrier over p: in round r every
// participant signals the one 2^r places up and waits for the one 2^r
// places down, so after ceil(log2 n) rounds each has (transitively) heard
// from everyone. Rounds are tagged base+r.
func (c *Comm) dissemBarrier(th *kernel.Thread, seq uint32, p part, base uint16) error {
	v, n := p.v(), p.n()
	for k, r := 1, 0; k < n; k, r = k<<1, r+1 {
		round := base + uint16(r)
		if err := c.sendTo(th, p.at(v+k), kData, seq, round, nil); err != nil {
			return err
		}
		c.recvFrom(th, seq, p.at(v-k+n), round)
	}
	return nil
}

// rdAllreduce is recursive doubling over p with the standard power-of-two
// fold: the first 2*rem participants pair up (evens fold into odds) so a
// power of two remains, those run log2 rounds of pairwise
// exchange-and-combine, and the folded-out evens get the result back. IEEE
// addition is commutative, and every participant combines the same pairing
// tree, so all return bit-identical results even for floating-point sums.
func (c *Comm) rdAllreduce(th *kernel.Thread, seq uint32, p part, op Op, tags rdTags, data []byte) ([]byte, error) {
	v, n := p.v(), p.n()
	acc := append([]byte(nil), data...)
	p2 := 1
	for p2*2 <= n {
		p2 *= 2
	}
	rem := n - p2
	newrank := -1
	switch {
	case v < 2*rem && v%2 == 0:
		if err := c.sendTo(th, p.at(v+1), kData, seq, tags.foldIn, acc); err != nil {
			return nil, err
		}
	case v < 2*rem:
		m := c.recvFrom(th, seq, p.at(v-1), tags.foldIn)
		op.Combine(acc, m.data)
		newrank = v / 2
	default:
		newrank = v - rem
	}
	if newrank >= 0 {
		oldOf := func(nr int) int {
			if nr < rem {
				return nr*2 + 1
			}
			return nr + rem
		}
		for bit, mask := 0, 1; mask < p2; bit, mask = bit+1, mask<<1 {
			partner := p.at(oldOf(newrank ^ mask))
			round := tags.bit + uint16(bit)
			if err := c.sendTo(th, partner, kData, seq, round, acc); err != nil {
				return nil, err
			}
			m := c.recvFrom(th, seq, partner, round)
			op.Combine(acc, m.data)
		}
	}
	switch {
	case v < 2*rem && v%2 == 0:
		m := c.recvFrom(th, seq, p.at(v+1), tags.foldOut)
		acc = m.data
	case v < 2*rem:
		if err := c.sendTo(th, p.at(v-1), kData, seq, tags.foldOut, acc); err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// ringAllreduce is the bandwidth-optimal ring: n-1 reduce-scatter steps
// (each member ends up owning one fully reduced chunk) followed by n-1
// allgather steps circulating the reduced chunks. Chunk boundaries are
// element-aligned; empty chunks (fewer elements than members) are legal.
// Every chunk is reduced along the ring in one fixed order, so all
// members return bit-identical results.
func (c *Comm) ringAllreduce(th *kernel.Thread, seq uint32, op Op, data []byte) ([]byte, error) {
	n := c.g.n
	acc := append([]byte(nil), data...)
	nel := len(acc) / op.Elem
	bound := func(i int) (int, int) {
		i = ((i % n) + n) % n
		return i * nel / n * op.Elem, (i + 1) * nel / n * op.Elem
	}
	right := (c.rank + 1) % n
	left := (c.rank - 1 + n) % n
	for s := 0; s < n-1; s++ {
		so, se := bound(c.rank - s)
		round := rRingRS + uint16(s)
		if err := c.sendTo(th, right, kData, seq, round, acc[so:se]); err != nil {
			return nil, err
		}
		m := c.recvFrom(th, seq, left, round)
		ro, re := bound(c.rank - s - 1)
		op.Combine(acc[ro:re], m.data)
	}
	for s := 0; s < n-1; s++ {
		so, se := bound(c.rank + 1 - s)
		round := rRingAG + uint16(s)
		if err := c.sendTo(th, right, kData, seq, round, acc[so:se]); err != nil {
			return nil, err
		}
		m := c.recvFrom(th, seq, left, round)
		ro, re := bound(c.rank - s)
		copy(acc[ro:re], m.data)
	}
	return acc, nil
}

// treeGather folds rank-keyed bundles up the binomial tree over p; the
// full bundle surfaces at the root (nil elsewhere).
func (c *Comm) treeGather(th *kernel.Thread, seq uint32, p part, round uint16, data []byte) (map[int][]byte, error) {
	v := p.v()
	bun := map[int][]byte{c.rank: append([]byte(nil), data...)}
	for mask := 1; mask < p.n(); mask <<= 1 {
		if v&mask != 0 {
			return nil, c.sendTo(th, p.at(v-mask), kData, seq, round, encodeBundle(bun))
		}
		if v+mask < p.n() {
			m := c.recvFrom(th, seq, p.at(v+mask), round)
			for r, b := range decodeBundle(m.data) {
				bun[r] = b
			}
		}
	}
	return bun, nil
}

// treeScatter pushes per-subtree bundles down the binomial tree over p.
// The subtree below virtual rank w with receive mask m covers virtual
// ranks [w, w+m), so each hop forwards exactly the parts its subtree needs.
func (c *Comm) treeScatter(th *kernel.Thread, seq uint32, p part, parts [][]byte) ([]byte, error) {
	v, n, top := p.v(), p.n(), p.subtree()
	var sub map[int][]byte // keyed by virtual rank
	if v == 0 {
		sub = make(map[int][]byte, n)
		for w := 0; w < n; w++ {
			sub[w] = parts[p.at(w)]
		}
	} else {
		sub = decodeBundle(c.recvFrom(th, seq, p.at(v-top), rScatter).data)
	}
	for m := top >> 1; m >= 1; m >>= 1 {
		if v+m >= n {
			continue
		}
		child := make(map[int][]byte, m)
		for w := v + m; w < v+2*m && w < n; w++ {
			child[w] = sub[w]
		}
		if err := c.sendTo(th, p.at(v+m), kData, seq, rScatter, encodeBundle(child)); err != nil {
			return nil, err
		}
	}
	return append([]byte(nil), sub[v]...), nil
}

// Bundles frame multiple rank-keyed payloads in one message:
// (key u16 | len u32 | bytes)*, sorted by key for determinism.
func encodeBundle(bun map[int][]byte) []byte {
	keys := make([]int, 0, len(bun))
	total := 0
	for k, b := range bun {
		keys = append(keys, k)
		total += 6 + len(b)
	}
	sort.Ints(keys)
	w := make([]byte, 0, total)
	for _, k := range keys {
		var h [6]byte
		binary.BigEndian.PutUint16(h[0:], uint16(k))
		binary.BigEndian.PutUint32(h[2:], uint32(len(bun[k])))
		w = append(w, h[:]...)
		w = append(w, bun[k]...)
	}
	return w
}

func decodeBundle(w []byte) map[int][]byte {
	bun := make(map[int][]byte)
	for len(w) >= 6 {
		k := int(binary.BigEndian.Uint16(w[0:]))
		l := int(binary.BigEndian.Uint32(w[2:]))
		w = w[6:]
		if l > len(w) {
			break
		}
		bun[k] = append([]byte(nil), w[:l]...)
		w = w[l:]
	}
	return bun
}

// bundleSlice lays a bundle out as a rank-indexed slice.
func bundleSlice(bun map[int][]byte, n int) [][]byte {
	out := make([][]byte, n)
	for r, b := range bun {
		if r >= 0 && r < n {
			out[r] = b
		}
	}
	return out
}
