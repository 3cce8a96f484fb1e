package server

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
)

// Numbers on the wire. encoding/json writes a float64 with
// strconv.AppendFloat(…, -1, 64): the shortest decimal that parses back
// to the same double and, among those, the one nearest its exact value
// (ties to even). strconv finds it with Ryū over 128-bit powers of ten
// at ~150 ns for a full-precision price, which made it the largest cost
// of serving an export-sized answer. appendShortest finds the same
// digits exactly in 64-bit fixed point for the doubles answers mostly
// carry: those whose last mantissa bit is worth 2^-63 … 2^-1 (|f| from
// 2^-11 ≈ 0.00049 to 2^52) and the integral ones below 2^53. The
// integer part is f's mantissa shifted down, the fraction f's mantissa
// shifted up into a uint64 — exactly — and one 64×64-bit product per
// digit count tried puts the fraction and its rounding interval on that
// decimal grid. Subnormals, magnitudes outside that range and
// non-finite values keep strconv.

// pow10 holds 10^0 … 10^19, every power of ten a uint64 holds.
var pow10 = func() (p [20]uint64) {
	p[0] = 1
	for i := 1; i < len(p); i++ {
		p[i] = p[i-1] * 10
	}
	return p
}()

// fracDigits[s] is the fewest fractional digits n with 10^-n ≤ 2^-s:
// the coarsest decimal grid at least as fine as the gap 2^-s between a
// double and its neighbours.
var fracDigits = func() (k [64]uint8) {
	for s := 1; s < len(k); s++ {
		for pow10[k[s]] < 1<<s {
			k[s]++
		}
	}
	return k
}()

// appendShortest appends f as encoding/json writes it, or returns dst
// and false when f is outside the range it covers (the caller falls
// back to strconv).
func appendShortest(dst []byte, f float64) ([]byte, bool) {
	b := math.Float64bits(f)
	neg := b>>63 != 0
	if b<<1 == 0 {
		if neg {
			return append(dst, '-', '0'), true
		}
		return append(dst, '0'), true
	}
	// f = ±m·2^-s with m a 53-bit mantissa.
	s := 1075 - int(b>>52&0x7ff)
	if s < 0 || s > 63 {
		return dst, false
	}
	m := b&(1<<52-1) | 1<<52
	// f = intPart + frac/2^64, both exact (a shift by 64 yields 0).
	intPart, frac := m>>s, m<<(64-s)
	if frac == 0 {
		if neg {
			dst = append(dst, '-')
		}
		return appendUint(dst, intPart), true
	}
	digits, n, ok := shortestFrac(frac, uint(s), m)
	if !ok {
		return dst, false
	}
	if neg {
		dst = append(dst, '-')
	}
	dst = appendUint(dst, intPart)
	dst = append(dst, '.')
	return appendFrac(dst, digits, n), true
}

// shortestFrac returns the fractional digits of the shortest decimal
// that rounds to the double m·2^-s whose fractional part is frac/2^64:
// digits/10^n, trailing zeros included. ok is false when n would exceed
// fracDigits[s], which only a binade bottom can need.
//
// The decimals that round to the double are those within half a gap of
// it: [frac − h, frac + h] in units of 2^-64 with h = 2^(63−s), the
// lower half-gap halved at a binade bottom (m = 2^52, where the next
// double down is half as far), both ends included exactly when m is
// even (a tie parses to the even mantissa). frac is a multiple of 2h,
// so the interval never reaches an integer. With k = fracDigits[s], the
// k−1 digit grid is coarser than the interval, so at most one of its
// points lies inside: if one does it is the shortest decimal, shorter
// ones being points of that grid too. Otherwise the k digit grid, no
// coarser than the interval, holds one or more, and the one nearest
// frac is the answer.
func shortestFrac(frac uint64, s uint, m uint64) (digits uint64, n int, ok bool) {
	t := 63 - s
	lt := t
	if m == 1<<52 {
		if t == 0 {
			return 0, 0, false
		}
		lt--
	}
	even := m&1 == 0
	k := int(fracDigits[s])
	if lo, hi, _, _ := onGrid(frac, pow10[k-1], t, lt, even); lo <= hi {
		return lo, k - 1, true
	}
	lo, hi, ch, cl := onGrid(frac, pow10[k], t, lt, even)
	if lo > hi {
		return 0, 0, false
	}
	// Round frac·10^k/2^64 = ch + cl/2^64 to the nearest integer, ties to
	// even; clamped into [lo, hi] it is the nearest admissible one.
	digits = ch
	if cl > 1<<63 || cl == 1<<63 && ch&1 != 0 {
		digits++
	}
	return min(max(digits, lo), hi), k, true
}

// onGrid scales the interval around frac/2^64 by p = 10^n: it returns
// the first and last integers lo, hi of the scaled interval (lo > hi
// when it holds none) and frac·p as the 128-bit ch·2^64 + cl. The
// upper half-gap is 2^t/2^64, the lower 2^lt/2^64.
func onGrid(frac, p uint64, t, lt uint, even bool) (lo, hi, ch, cl uint64) {
	ch, cl = bits.Mul64(frac, p)
	// p·2^t as a 128-bit number (a shift by 64 yields 0).
	ul, carry := bits.Add64(cl, p<<t, 0)
	uh := ch + p>>(64-t) + carry
	ll, borrow := bits.Sub64(cl, p<<lt, 0)
	lh := ch - p>>(64-lt) - borrow
	lo, hi = lh+1, uh
	if even && ll == 0 {
		lo = lh
	}
	if !even && ul == 0 {
		hi--
	}
	return lo, hi, ch, cl
}

// eightDigits returns r < 10^8 as eight ASCII digits packed into a
// uint64 in memory order (the first digit in the low byte), leading
// zeros included. It splits r into 4-digit halves in 32-bit lanes,
// those into 2-digit quarters in 16-bit lanes and those into digits in
// bytes, dividing every lane at once by a multiply and shift that is
// exact at that lane's range (x·10486>>20 = x/100 below 10^4,
// x·103>>10 = x/10 below 100).
func eightDigits(r uint32) uint64 {
	x := uint64(r/1e4) | uint64(r%1e4)<<32
	q := (x * 10486 >> 20) & 0x0000007f_0000007f
	x = (x-q*100)<<16 | q
	q = (x * 103 >> 10) & 0x000f_000f_000f_000f
	x = (x-q*10)<<8 | q
	return x | 0x30303030_30303030
}

// digitCount returns the number of decimal digits of v (1 for 0).
func digitCount(v uint64) int {
	n := bits.Len64(v) * 1233 >> 12 // ⌊log10 2^len⌋, one short at most
	if v >= pow10[n] {
		n++
	}
	return max(n, 1)
}

// appendPadded appends v < 10^n as exactly n digits, zero-padded on
// the left, eight at a time: each block is stored as one word straight
// into dst's spare capacity.
func appendPadded(dst []byte, v uint64, n int) []byte {
	if n > 8 {
		q := v / 1e8
		dst = appendPadded(dst, q, n-8)
		v, n = v-q*1e8, 8
	}
	i := len(dst)
	dst = slices.Grow(dst, 8)[:i+8]
	// The last n of the eight digits, shifted down to the first bytes.
	binary.LittleEndian.PutUint64(dst[i:], eightDigits(uint32(v))>>(64-8*n))
	return dst[:i+n]
}

// appendUint appends v in decimal.
func appendUint(dst []byte, v uint64) []byte { return appendPadded(dst, v, digitCount(v)) }

// appendInt appends v in decimal, as strconv.AppendInt(dst, v, 10).
func appendInt(dst []byte, v int64) []byte {
	u := uint64(v)
	if v < 0 {
		dst = append(dst, '-')
		u = -u
	}
	return appendUint(dst, u)
}

// appendFrac appends digits (0 < digits < 10^n) as n fractional digits,
// zero-padded on the left, without their trailing zeros.
func appendFrac(dst []byte, digits uint64, n int) []byte {
	dst = appendPadded(dst, digits, n)
	for dst[len(dst)-1] == '0' {
		dst = dst[:len(dst)-1]
	}
	return dst
}
