package transport

import (
	"repro/internal/fiber"
	"repro/internal/sim"
)

// respCacheMax bounds the answers one at-most-once table retains.
const respCacheMax = 256

// reqKey names one request or transaction at the server: the client CAB
// and the id the client gave it.
type reqKey struct {
	src   uint16
	reqID uint32
}

// onceState is what an at-most-once table knows about a key.
type onceState int

const (
	onceNew      onceState = iota // never seen (or evicted): execute it
	onceInFlight                  // delivered, not yet answered: suppress
	onceAnswered                  // answered: resend the kept answer
)

// answer is a kept answer: its data, in a body from the store, and its
// class, which Transport.resend re-encodes.
type answer struct {
	data  []byte
	class Class
}

// atMostOnce is the server half of at-most-once execution under client
// retransmission, shared by request-response and VMTP: a duplicate of a
// request still being served is suppressed, a duplicate of an answered one
// gets the kept answer again, and answers are evicted oldest-first beyond
// respCacheMax. Each answer's body goes back when it is evicted or replaced.
type atMostOnce struct {
	store    *fiber.FrameStore
	inflight map[reqKey]bool
	answers  map[reqKey]answer
	order    sim.FIFO[reqKey] // answered keys, oldest first
}

func newAtMostOnce(store *fiber.FrameStore) atMostOnce {
	return atMostOnce{store: store, inflight: make(map[reqKey]bool), answers: make(map[reqKey]answer)}
}

// lookup classifies an arriving key, returning the kept answer when there
// is one.
func (o *atMostOnce) lookup(key reqKey) (answer, onceState) {
	if a, ok := o.answers[key]; ok {
		return a, onceAnswered
	}
	if o.inflight[key] {
		return answer{}, onceInFlight
	}
	return answer{}, onceNew
}

// begin marks key delivered to the server.
func (o *atMostOnce) begin(key reqKey) { o.inflight[key] = true }

// answer keeps a copy of data, with its class, as key's answer. Answering a
// key twice replaces the answer without aging the rest of the table.
func (o *atMostOnce) answer(key reqKey, data []byte, class Class) {
	delete(o.inflight, key)
	if old, ok := o.answers[key]; ok {
		o.store.PutBody(old.data)
	} else {
		if o.order.Len() == respCacheMax {
			evict := o.order.Pop()
			o.store.PutBody(o.answers[evict].data)
			delete(o.answers, evict)
		}
		o.order.Push(key)
	}
	o.answers[key] = answer{data: append(o.store.Body(len(data))[:0], data...), class: class}
}
