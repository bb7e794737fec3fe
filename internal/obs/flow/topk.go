package flow

import "sort"

// TopEntry is one heavy-hitter candidate: an estimated weight plus the
// maximum possible overcount inherited from the entry it evicted.
type TopEntry struct {
	Key   Key
	Count int64 // estimated weight (upper bound on the true weight)
	Err   int64 // Count - Err is a lower bound on the true weight
}

// TopK is the space-saving heavy-hitter sketch (Metwally et al.): k
// monitored entries; a miss replaces the minimum-count entry and inherits
// its count as the new entry's error bound. Any flow whose true weight
// exceeds total/k is guaranteed to be monitored. The sketch is fully
// deterministic — no hashing, no randomness: eviction scans the fixed
// entry array and breaks count ties by slot order.
type TopK struct {
	k   int
	idx map[Key]int
	ent []TopEntry
}

// NewTopK returns a sketch monitoring up to k entries (k <= 0: DefaultTopK).
func NewTopK(k int) *TopK {
	if k <= 0 {
		k = DefaultTopK
	}
	return &TopK{k: k, idx: make(map[Key]int, k)}
}

// Offer adds weight w to key. Zero-alloc once the sketch is warm: hits and
// evictions only update the preallocated entry array.
func (t *TopK) Offer(key Key, w int64) {
	if t == nil {
		return
	}
	if i, ok := t.idx[key]; ok {
		t.ent[i].Count += w
		return
	}
	if len(t.ent) < t.k {
		t.idx[key] = len(t.ent)
		t.ent = append(t.ent, TopEntry{Key: key, Count: w})
		return
	}
	// Evict the minimum-count entry (first such slot wins: deterministic).
	min := 0
	for i := 1; i < len(t.ent); i++ {
		if t.ent[i].Count < t.ent[min].Count {
			min = i
		}
	}
	old := t.ent[min]
	delete(t.idx, old.Key)
	t.idx[key] = min
	t.ent[min] = TopEntry{Key: key, Count: old.Count + w, Err: old.Count}
}

// Entries returns the monitored entries, heaviest first (count ties broken
// by key order), as a fresh slice.
func (t *TopK) Entries() []TopEntry {
	if t == nil {
		return nil
	}
	out := make([]TopEntry, len(t.ent))
	copy(out, t.ent)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key.less(out[j].Key)
	})
	return out
}
