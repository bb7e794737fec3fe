package hub

import (
	"repro/internal/fiber"
	"repro/internal/hub/comb"
	"repro/internal/trace"
)

// combOpKind maps a combining opcode to its engine operation.
func combOpKind(op Opcode) comb.OpKind {
	switch op {
	case OpCombSum:
		return comb.OpSum
	case OpCombMax:
		return comb.OpMax
	case OpCombFSum:
		return comb.OpFSum
	default:
		return comb.OpBarrier
	}
}

// EnableCombining arms the in-network combining engine on this HUB. Call
// before traffic and before Instrument, which instruments the engine only
// if it is armed; a HUB without an engine declines combining commands
// (reply ok=false), so contributors fall back to endpoint algorithms.
func (h *Hub) EnableCombining(p comb.Params) {
	h.comb = comb.New(h.eng, h.name, p)
}

// Combining reports whether the combining engine is armed.
func (h *Hub) Combining() bool { return h.comb != nil }

// CombEngine returns the combining engine (nil when not armed).
func (h *Hub) CombEngine() *comb.Engine { return h.comb }

// execComb runs a combining command at the central controller. The command
// charges one controller cycle (like any serialized command) but never
// parks the input port; the verdict — combined value or a decline — goes
// back over the never-blocked reverse channel once the slot resolves.
func (h *Hub) execComb(it *fiber.Item) {
	cd := it.Comb
	if h.comb == nil || cd == nil {
		// Combining dark on this HUB (or a malformed frame): decline so
		// the contributor falls back to its endpoint algorithm.
		h.reply(it, false, 0)
		return
	}
	sp := it.Span.ChildAt(it.Start, trace.LayerHub, h.name, "comb")
	op := combOpKind(Opcode(it.Cmd.Op))
	key := comb.Key{Tag: cd.Tag, Lane: cd.Lane, Seq: cd.Seq}
	done := h.controllerSlot(h.eng.Now())
	h.eng.At(done, func() {
		h.comb.Contribute(op, key, int(cd.Count), cd.Operand, func(res comb.Result) {
			sp.End()
			h.reply(it, res.Combined, res.Value)
		})
	})
}
