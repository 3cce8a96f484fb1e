package htcache

import "hashstash/internal/types"

// bloomFilter is a plain blocked-free bloom filter over 64-bit content
// hashes, sized at build time for ~1% false positives (10 bits per
// key, 6 probe positions). Filters are built once when an index
// demotes and
// read-only afterwards, so concurrent membership tests need no
// synchronization. The k positions derive from the input hash by
// double hashing: position_i = h1 + i·h2, with h2 forced odd so the
// stride cycles the whole bit space.
type bloomFilter struct {
	bits []uint64
	mask uint64 // len(bits)*64 - 1; the bit count is a power of two
}

const (
	bloomBitsPerKey = 10
	bloomHashes     = 6
)

// newBloom sizes a filter for n keys.
func newBloom(n int) *bloomFilter {
	bits := uint64(64)
	for bits < uint64(n)*bloomBitsPerKey {
		bits <<= 1
	}
	return &bloomFilter{bits: make([]uint64, bits/64), mask: bits - 1}
}

func (b *bloomFilter) add(h uint64) {
	h1, h2 := h, types.Mix64(h)|1
	for i := 0; i < bloomHashes; i++ {
		p := (h1 + uint64(i)*h2) & b.mask
		b.bits[p>>6] |= 1 << (p & 63)
	}
}

func (b *bloomFilter) mayContain(h uint64) bool {
	h1, h2 := h, types.Mix64(h)|1
	for i := 0; i < bloomHashes; i++ {
		p := (h1 + uint64(i)*h2) & b.mask
		if b.bits[p>>6]&(1<<(p&63)) == 0 {
			return false
		}
	}
	return true
}
