package transport

import "testing"

func onceKey(i int) reqKey { return reqKey{src: 7, reqID: uint32(i)} }

func TestAtMostOnceStates(t *testing.T) {
	o := newAtMostOnce[string]()
	k := onceKey(1)
	if _, st := o.lookup(k); st != onceNew {
		t.Fatalf("unseen key: state %v, want new", st)
	}
	o.begin(k)
	if _, st := o.lookup(k); st != onceInFlight {
		t.Fatalf("delivered key: state %v, want in flight (duplicates suppressed)", st)
	}
	o.answer(k, "resp")
	if a, st := o.lookup(k); st != onceAnswered || a != "resp" {
		t.Fatalf("answered key: %q state %v, want cached answer", a, st)
	}
	if len(o.inflight) != 0 {
		t.Fatalf("answer left %d keys in flight", len(o.inflight))
	}
	// Same id from another client is a different request.
	if _, st := o.lookup(reqKey{src: 8, reqID: 1}); st != onceNew {
		t.Fatalf("other client's key: state %v, want new", st)
	}
}

func TestAtMostOnceBoundAndFIFOEviction(t *testing.T) {
	if respCacheMax != 256 {
		t.Fatalf("respCacheMax = %d, want 256", respCacheMax)
	}
	o := newAtMostOnce[int]()
	for i := 0; i < respCacheMax; i++ {
		o.answer(onceKey(i), i)
	}
	if len(o.answers) != respCacheMax || o.order.Len() != respCacheMax {
		t.Fatalf("full table holds %d answers, %d order entries", len(o.answers), o.order.Len())
	}
	// One more evicts exactly the oldest.
	o.answer(onceKey(respCacheMax), respCacheMax)
	if _, st := o.lookup(onceKey(0)); st != onceNew {
		t.Fatalf("oldest answer survived the bound: state %v", st)
	}
	for i := 1; i <= respCacheMax; i++ {
		if a, st := o.lookup(onceKey(i)); st != onceAnswered || a != i {
			t.Fatalf("key %d: answer %d state %v, want cached", i, a, st)
		}
	}
	if len(o.answers) != respCacheMax || o.order.Len() != respCacheMax {
		t.Fatalf("after eviction: %d answers, %d order entries", len(o.answers), o.order.Len())
	}
}

// Answering one key twice (a server that responds again) must replace the
// answer in place: were the key appended to the eviction order again, a
// full table would evict a live entry one answer early.
func TestAtMostOnceReanswerDoesNotAge(t *testing.T) {
	o := newAtMostOnce[int]()
	for i := 0; i < respCacheMax; i++ {
		o.answer(onceKey(i), i)
	}
	o.answer(onceKey(5), 500)
	if o.order.Len() != respCacheMax {
		t.Fatalf("re-answer grew the order to %d", o.order.Len())
	}
	if a, st := o.lookup(onceKey(0)); st != onceAnswered || a != 0 {
		t.Fatalf("re-answer evicted the oldest live entry (state %v)", st)
	}
	if a, _ := o.lookup(onceKey(5)); a != 500 {
		t.Fatalf("re-answer kept the stale answer %d", a)
	}
}
