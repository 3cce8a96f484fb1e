package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"strconv"
	"testing"
)

// jsonFloat is encoding/json's encoding of f, with null for the
// non-finite values it refuses.
func jsonFloat(t testing.TB, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return []byte("null")
	}
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatalf("%v: %v", f, err)
	}
	return b
}

// strconvFloat is encoding/json's float rule spelled out over strconv:
// the shortest round-trip digits, in 'e' notation (exponent without a
// leading zero) below 1e-6 and from 1e21, in 'f' notation otherwise.
// The bulk differential uses it because json.Marshal allocates per
// value; it is itself checked against json.Marshal on a sample.
func strconvFloat(dst []byte, f float64) []byte {
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		dst = strconv.AppendFloat(dst, f, 'e', -1, 64)
		if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
		return dst
	}
	return strconv.AppendFloat(dst, f, 'f', -1, 64)
}

// withExp returns the positive double with the given biased exponent
// and mantissa field.
func withExp(biased int, mant uint64) float64 {
	return math.Float64frombits(uint64(biased)<<52 | mant&(1<<52-1))
}

// genPrice draws l_extendedprice the way the generator does: a
// quantity in 1..50 times a uniform unit price in [900, 2000).
func genPrice(rng *rand.Rand) float64 {
	return float64(1+rng.IntN(50)) * (900 + rng.Float64()*1100)
}

// genDiscount draws l_discount: 0.00 … 0.10 in steps of 0.01.
func genDiscount(rng *rand.Rand) float64 { return float64(rng.IntN(11)) / 100 }

// genTie draws odd/2^(k+1) in the binade of shift s, k = fracDigits[s]:
// it lies exactly halfway between two k-digit decimals, so when no
// (k−1)-digit decimal rounds to it, the nearest k-digit one is a tie.
func genTie(rng *rand.Rand) float64 {
	s := 2 + rng.IntN(62)
	k := int(fracDigits[s])
	lo := uint64(1) << (53 - s + k)
	return math.Ldexp(float64(lo+rng.Uint64N(lo)|1), -(k + 1))
}

// floatFamily is one shape of double the differential draws.
type floatFamily struct {
	name string
	n    int
	draw func(rng *rand.Rand) float64
}

// coveredS draws the shift s of a double m·2^-s: every s the kernel
// covers plus the first one outside on each side, -1 and 64.
func coveredS(rng *rand.Rand) int { return rng.IntN(66) - 1 }

var floatFamilies = []floatFamily{
	{"price", 3_000_000, genPrice},
	{"cent price", 1_000_000, func(rng *rand.Rand) float64 { return float64(rng.IntN(10_000_000)) / 100 }},
	{"discount", 1_500_000, func(rng *rand.Rand) float64 {
		p, d := genPrice(rng), genDiscount(rng)
		tax := float64(rng.IntN(9)) / 100
		switch rng.IntN(5) {
		case 0:
			return d
		case 1:
			return 1 - d
		case 2:
			return p * (1 - d)
		case 3:
			return p * (1 - d) * (1 + tax)
		}
		return p / float64(1+rng.IntN(5000)) // an average
	}},
	{"random bits", 4_000_000, func(rng *rand.Rand) float64 {
		return withExp(1075-coveredS(rng), rng.Uint64())
	}},
	{"binade bottom", 200_000, func(rng *rand.Rand) float64 {
		f := withExp(1075-coveredS(rng), 0)
		for step := rng.IntN(7) - 3; step != 0; {
			if step > 0 {
				f, step = math.Nextafter(f, math.Inf(1)), step-1
			} else {
				f, step = math.Nextafter(f, 0), step+1
			}
		}
		return f
	}},
	{"tie", 500_000, genTie},
	{"integral", 500_000, func(rng *rand.Rand) float64 {
		switch rng.IntN(3) {
		case 0:
			return float64(rng.Int64N(1 << 53))
		case 1:
			return float64(rng.Int64N(1 << 53 >> rng.IntN(53)))
		}
		return float64(1<<53 + rng.Int64N(9) - 4) // 2^53±1 rounds to an even neighbour
	}},
}

// TestAppendFloatDifferential: appendFloat writes the bytes encoding/json
// writes for every double of every family, over more than ten million
// doubles, a quarter of them negated. The doubles the kernel does not
// cover (outside its exponent range, or a binade bottom whose shortest
// form it cannot reach) go through strconv and must match too.
func TestAppendFloatDifferential(t *testing.T) {
	rng := rand.New(rand.NewPCG(45, 1))
	var got, want []byte
	total, mismatches := 0, 0
	for _, fam := range floatFamilies {
		covered := 0
		for i := range fam.n {
			f := fam.draw(rng)
			if rng.IntN(4) == 0 {
				f = -f
			}
			got = appendFloat(got[:0], f)
			want = strconvFloat(want[:0], f)
			if i%4096 == 0 {
				if j := jsonFloat(t, f); !bytes.Equal(want, j) {
					t.Fatalf("reference %s differs from encoding/json %s", want, j)
				}
			}
			if !bytes.Equal(got, want) {
				if mismatches++; mismatches <= 10 {
					t.Errorf("%s %#x: got %s, want %s", fam.name, math.Float64bits(f), got, want)
				}
			}
			if _, ok := appendShortest(nil, f); ok {
				covered++
			}
		}
		total += fam.n
		t.Logf("%-14s %9d doubles, %9d by the kernel", fam.name, fam.n, covered)
	}
	if mismatches > 0 {
		t.Fatalf("%d of %d doubles differ from encoding/json", mismatches, total)
	}
	t.Logf("%d doubles, 0 mismatches", total)
}

// TestAppendShortestCoversPrices: the kernel itself, not the strconv
// fallback, formats the generator's l_extendedprice, l_discount and
// the revenue expressions over them, so a kernel that always declined
// would fail here rather than only run slower.
func TestAppendShortestCoversPrices(t *testing.T) {
	rng := rand.New(rand.NewPCG(45, 2))
	for i := 0; i < 200_000; i++ {
		p, d := genPrice(rng), genDiscount(rng)
		for _, f := range []float64{p, d, -p, p * (1 - d), float64(rng.IntN(10_000_000)) / 100} {
			got, ok := appendShortest(nil, f)
			if !ok {
				t.Fatalf("%v (%#x): the kernel declined", f, math.Float64bits(f))
			}
			if want := strconvFloat(nil, f); !bytes.Equal(got, want) {
				t.Fatalf("%#x: got %s, want %s", math.Float64bits(f), got, want)
			}
		}
	}
}

// TestAppendShortestTies: the tie family really contains doubles that
// lie exactly halfway between the two nearest shortest decimals, and
// the kernel rounds them to the even one as strconv does.
func TestAppendShortestTies(t *testing.T) {
	// 8 + 2^-16 = 8.0000152587890625: its 16-digit neighbours
	// …0625 ± 5e-17 are both admissible, and the even one ends in 2.
	if got, _ := appendShortest(nil, 8+1.0/65536); string(got) != "8.000015258789062" {
		t.Fatalf("8+2^-16: got %s", got)
	}
	rng := rand.New(rand.NewPCG(45, 3))
	ties := 0
	for range 20_000 {
		f := genTie(rng)
		b := math.Float64bits(f)
		s := uint(1075 - int(b>>52&0x7ff))
		m := b&(1<<52-1) | 1<<52
		frac, k := m<<(64-s), int(fracDigits[s])
		if lo, hi, _, _ := onGrid(frac, pow10[k-1], 63-s, 63-s, m&1 == 0); lo <= hi {
			continue
		}
		if _, _, _, cl := onGrid(frac, pow10[k], 63-s, 63-s, m&1 == 0); cl == 1<<63 {
			ties++
		}
	}
	if ties < 1000 {
		t.Fatalf("only %d of 20000 tie-family doubles are ties", ties)
	}
}

// TestAppendIntMatchesStrconv: the integer writer against
// strconv.AppendInt at every power of ten and its neighbours, the
// extremes and random magnitudes.
func TestAppendIntMatchesStrconv(t *testing.T) {
	vals := []int64{0, 1, -1, 9, 10, 99, 100, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	for p := int64(1); p <= math.MaxInt64/10; p *= 10 {
		vals = append(vals, p-1, p, p+1, -p, 10*p-1)
	}
	rng := rand.New(rand.NewPCG(45, 4))
	for range 200_000 {
		vals = append(vals, rng.Int64()>>rng.IntN(64))
	}
	var got []byte
	for _, v := range vals {
		got = appendInt(got[:0], v)
		if want := strconv.FormatInt(v, 10); string(got) != want {
			t.Fatalf("%d: got %s", v, got)
		}
	}
}

// FuzzAppendFloat: appendFloat writes what encoding/json writes (null
// for NaN and ±Inf) for any bit pattern. The seed corpus — the kernel's
// range edges, a binade bottom, a tie, 2^53±1 — runs under go test.
func FuzzAppendFloat(f *testing.F) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 0.04, 0.96, 37541.97, 104949.5 / 7,
		math.Ldexp(1, -11), math.Nextafter(math.Ldexp(1, -11), 0), math.Nextafter(math.Ldexp(1, -11), 1),
		1 << 52, 1<<52 - 0.5, 1<<53 - 1, 1 << 53, 1<<53 + 2, 8 + 1.0/65536,
		1e-6, 1e21, math.SmallestNonzeroFloat64, math.MaxFloat64, math.NaN(), math.Inf(-1),
	} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, b uint64) {
		v := math.Float64frombits(b)
		if got, want := appendFloat(nil, v), jsonFloat(t, v); !bytes.Equal(got, want) {
			t.Fatalf("%#x: got %s, want %s", b, got, want)
		}
	})
}
