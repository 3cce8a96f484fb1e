package types

// Hash functions used by the hash tables and the shared-plan tagging
// machinery. Mix64 is the splitmix64 finalizer, a fast full-avalanche
// mixer for 8-byte keys; HashBytes is FNV-1a finished with Mix64 so that
// short keys still spread across the full 64-bit range (a hash table's
// slot is the low bits of the hash, so poor low-bit diffusion would
// pile keys into a few long chains).

// Mix64 mixes a 64-bit value with full avalanche (splitmix64 finalizer).
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// HashBytes hashes an arbitrary byte string to 64 bits.
func HashBytes(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return Mix64(h)
}

// HashString hashes a string to 64 bits without copying it.
func HashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return Mix64(h)
}

// HashCombine folds a new 64-bit component into an existing hash. It is
// used for multi-column keys: h = HashCombine(h, Mix64(col)).
func HashCombine(h, x uint64) uint64 {
	// Boost-style combine adapted to 64 bits.
	h ^= x + 0x9e3779b97f4a7c15 + (h << 12) + (h >> 4)
	return Mix64(h)
}
