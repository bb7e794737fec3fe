package transport

import "repro/internal/sim"

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
	onceAnswered                  // answered: resend the cached answer
)

// atMostOnce is the server half of at-most-once execution under client
// retransmission, shared by request-response (A is one wire packet) and
// VMTP (A is a packet group): a duplicate of a request still being served
// is suppressed, a duplicate of an answered one gets the cached answer
// again, and answers are evicted oldest-first beyond respCacheMax.
type atMostOnce[A any] struct {
	inflight map[reqKey]bool
	answers  map[reqKey]A
	order    sim.FIFO[reqKey] // answered keys, oldest first
}

func newAtMostOnce[A any]() atMostOnce[A] {
	return atMostOnce[A]{inflight: make(map[reqKey]bool), answers: make(map[reqKey]A)}
}

// lookup classifies an arriving key, returning the cached answer when
// there is one.
func (o *atMostOnce[A]) lookup(key reqKey) (A, onceState) {
	if a, ok := o.answers[key]; ok {
		return a, onceAnswered
	}
	var none A
	if o.inflight[key] {
		return none, onceInFlight
	}
	return none, onceNew
}

// begin marks key delivered to the server.
func (o *atMostOnce[A]) begin(key reqKey) { o.inflight[key] = true }

// answer records the server's answer to key. Answering a key twice
// replaces the answer without aging the rest of the cache.
func (o *atMostOnce[A]) answer(key reqKey, a A) {
	delete(o.inflight, key)
	if _, ok := o.answers[key]; !ok {
		if o.order.Len() == respCacheMax {
			delete(o.answers, o.order.Pop())
		}
		o.order.Push(key)
	}
	o.answers[key] = a
}
