package hashtable

import (
	"maps"
	"slices"
	"sync/atomic"
)

// StringHeap interns strings for fixed-width payload rows: a string
// column stores the 8-byte intern id instead of the string itself, so
// entry rows stay flat and pointer-free (keeping Go's GC out of probe
// loops). The heap is owned by one hash table and shares the table's
// lifetime; a widened copy of the table clones it, so interning into
// the copy never writes to a heap a published snapshot reads.
type StringHeap struct {
	strs  []string
	index map[string]uint64
	bytes int64
	// frozen is atomic: concurrent wideners of one published snapshot
	// all freeze its heap.
	frozen atomic.Bool
}

// NewStringHeap returns an empty heap.
func NewStringHeap() *StringHeap {
	return &StringHeap{index: make(map[string]uint64)}
}

// freeze marks the heap immutable (idempotent, concurrency-safe).
func (h *StringHeap) freeze() { h.frozen.Store(true) }

// clone returns a mutable copy with the same ids.
func (h *StringHeap) clone() *StringHeap {
	return &StringHeap{strs: slices.Clone(h.strs), index: maps.Clone(h.index), bytes: h.bytes}
}

// Intern returns the id for s, adding it on first use.
func (h *StringHeap) Intern(s string) uint64 {
	if h.frozen.Load() {
		panic("hashtable: Intern on frozen string heap")
	}
	if id, ok := h.index[s]; ok {
		return id
	}
	id := uint64(len(h.strs))
	h.strs = append(h.strs, s)
	h.index[s] = id
	h.bytes += int64(len(s))
	return id
}

// At returns the string for a previously interned id.
func (h *StringHeap) At(id uint64) string { return h.strs[id] }

// Lookup returns the id for s without interning it. Probe pipelines use
// it: a probe key whose string was never interned cannot match any entry,
// and must not grow the build side's heap.
func (h *StringHeap) Lookup(s string) (uint64, bool) {
	id, ok := h.index[s]
	return id, ok
}

// LookupBulk resolves a whole column of probe-key strings in one pass:
// dst[i] receives the id of strs[i], and miss[i] is set when the string
// was never interned (such a row cannot match any entry). The heap is
// not grown.
func (h *StringHeap) LookupBulk(dst []uint64, miss []bool, strs []string) {
	index := h.index
	for i, s := range strs {
		id, ok := index[s]
		if !ok {
			miss[i] = true
			continue
		}
		dst[i] = id
	}
}

// InternBulk interns a whole column of build-side strings in one pass,
// writing the ids into dst.
func (h *StringHeap) InternBulk(dst []uint64, strs []string) {
	for i, s := range strs {
		dst[i] = h.Intern(s)
	}
}

// Len reports the number of interned strings.
func (h *StringHeap) Len() int { return len(h.strs) }

// ByteSize estimates the heap's memory footprint: string bytes plus
// per-entry header and index overhead.
func (h *StringHeap) ByteSize() int64 { return h.bytes + int64(len(h.strs))*48 }
