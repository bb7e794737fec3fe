package transport

import (
	"bytes"
	"testing"

	"repro/internal/fiber"
)

func onceKey(i int) reqKey { return reqKey{src: 7, reqID: uint32(i)} }

// onceData is the answer the tests give key i.
func onceData(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 40+i%3) }

// kept reports whether the table keeps data, with class c, as key's answer.
func kept(o *atMostOnce, key reqKey, data []byte, c Class) bool {
	a, st := o.lookup(key)
	return st == onceAnswered && bytes.Equal(a.data, data) && a.class == c
}

func TestAtMostOnceStates(t *testing.T) {
	var store fiber.FrameStore
	o := newAtMostOnce(&store)
	k := onceKey(1)
	if _, st := o.lookup(k); st != onceNew {
		t.Fatalf("unseen key: state %v, want new", st)
	}
	o.begin(k)
	if _, st := o.lookup(k); st != onceInFlight {
		t.Fatalf("delivered key: state %v, want in flight (duplicates suppressed)", st)
	}
	resp := []byte("resp")
	o.answer(k, resp, ClassBulk)
	resp[0] = 'X' // the table keeps a copy, not the caller's buffer
	if !kept(&o, k, []byte("resp"), ClassBulk) {
		t.Fatal("answered key: want its answer kept, with its class")
	}
	if len(o.inflight) != 0 {
		t.Fatalf("answer left %d keys in flight", len(o.inflight))
	}
	// Same id from another client is a different request.
	if _, st := o.lookup(reqKey{src: 8, reqID: 1}); st != onceNew {
		t.Fatalf("other client's key: state %v, want new", st)
	}
}

// The table owns one body per answer it keeps: an evicted answer's body
// goes back to the store, once.
func TestAtMostOnceBoundAndFIFOEviction(t *testing.T) {
	if respCacheMax != 256 {
		t.Fatalf("respCacheMax = %d, want 256", respCacheMax)
	}
	var store fiber.FrameStore
	o := newAtMostOnce(&store)
	for i := 0; i < respCacheMax; i++ {
		o.answer(onceKey(i), onceData(i), ClassNormal)
	}
	if len(o.answers) != respCacheMax || o.order.Len() != respCacheMax {
		t.Fatalf("full table holds %d answers, %d order entries", len(o.answers), o.order.Len())
	}
	// More evict exactly the oldest, one each.
	for i := respCacheMax; i < 2*respCacheMax; i++ {
		o.answer(onceKey(i), onceData(i), ClassNormal)
	}
	for i := 0; i < respCacheMax; i++ {
		if _, st := o.lookup(onceKey(i)); st != onceNew {
			t.Fatalf("answer %d survived the bound: state %v", i, st)
		}
	}
	for i := respCacheMax; i < 2*respCacheMax; i++ {
		if !kept(&o, onceKey(i), onceData(i), ClassNormal) {
			t.Fatalf("key %d: answer not kept", i)
		}
	}
	if len(o.answers) != respCacheMax || o.order.Len() != respCacheMax {
		t.Fatalf("after eviction: %d answers, %d order entries", len(o.answers), o.order.Len())
	}
	if _, bodies := store.Out(); bodies != respCacheMax {
		t.Fatalf("%d bodies out for %d answers held", bodies, respCacheMax)
	}
}

// Answering one key twice (a server that responds again) must replace the
// answer in place: were the key appended to the eviction order again, a
// full table would evict a live entry one answer early. The replaced
// answer's body goes back to the store.
func TestAtMostOnceReanswerDoesNotAge(t *testing.T) {
	var store fiber.FrameStore
	o := newAtMostOnce(&store)
	for i := 0; i < respCacheMax; i++ {
		o.answer(onceKey(i), onceData(i), ClassNormal)
	}
	o.answer(onceKey(5), []byte("again"), ClassCritical)
	if o.order.Len() != respCacheMax {
		t.Fatalf("re-answer grew the order to %d", o.order.Len())
	}
	if !kept(&o, onceKey(0), onceData(0), ClassNormal) {
		t.Fatal("re-answer evicted the oldest live entry")
	}
	if !kept(&o, onceKey(5), []byte("again"), ClassCritical) {
		t.Fatal("re-answer kept the stale answer")
	}
	if _, bodies := store.Out(); bodies != respCacheMax {
		t.Fatalf("%d bodies out for %d answers held", bodies, respCacheMax)
	}
}
