package types

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{Int64: "int64", Float64: "float64", String: "string", Date: "date"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(42).String(); got != "kind(42)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestKindWidth(t *testing.T) {
	for _, k := range []Kind{Int64, Float64, String, Date} {
		if k.Width() != 8 {
			t.Errorf("%v.Width() = %d, want 8", k, k.Width())
		}
	}
}

func TestValueConstructorsAndConversions(t *testing.T) {
	if v := NewInt(-7); v.Kind != Int64 || v.AsInt() != -7 || v.AsFloat() != -7 {
		t.Errorf("NewInt: %+v", v)
	}
	if v := NewFloat(2.5); v.Kind != Float64 || v.AsFloat() != 2.5 || v.AsInt() != 2 {
		t.Errorf("NewFloat: %+v", v)
	}
	if v := NewString("x"); v.Kind != String || v.S != "x" {
		t.Errorf("NewString: %+v", v)
	}
	if v := NewDate(100); v.Kind != Date || v.AsInt() != 100 {
		t.Errorf("NewDate: %+v", v)
	}
	if !math.IsNaN(NewString("x").AsFloat()) {
		t.Error("string AsFloat should be NaN")
	}
	if NewString("x").AsInt() != 0 {
		t.Error("string AsInt should be 0")
	}
}

func TestValueCompare(t *testing.T) {
	tests := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewFloat(1.5), NewInt(2), -1},
		{NewInt(2), NewFloat(1.5), 1},
		{NewFloat(2), NewInt(2), 0},
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("b"), 0},
		{NewString("c"), NewString("b"), 1},
		{NewDate(10), NewDate(20), -1},
		// NaN sorts above +Inf and equals only NaN.
		{NewFloat(math.NaN()), NewFloat(math.Inf(1)), 1},
		{NewFloat(math.Inf(1)), NewFloat(math.NaN()), -1},
		{NewInt(math.MaxInt64), NewFloat(math.NaN()), -1},
		{NewFloat(math.NaN()), NewFloat(math.NaN()), 0},
		{NewFloat(math.Copysign(0, -1)), NewFloat(0), 0},
	}
	for _, tc := range tests {
		if got := tc.a.Compare(tc.b); got != tc.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
		if eq := tc.a.Equal(tc.b); eq != (tc.want == 0) {
			t.Errorf("Equal(%v, %v) = %v", tc.a, tc.b, eq)
		}
	}
}

func TestValueString(t *testing.T) {
	tests := []struct {
		v    Value
		want string
	}{
		{NewInt(42), "42"},
		{NewFloat(1.5), "1.5"},
		{NewString("hi"), "hi"},
		{NewDate(MustParseDate("1995-03-15")), "1995-03-15"},
	}
	for _, tc := range tests {
		if got := tc.v.String(); got != tc.want {
			t.Errorf("String(%#v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

func TestBitsRoundTrip(t *testing.T) {
	vals := []Value{NewInt(-5), NewInt(1 << 40), NewFloat(-2.25), NewDate(9000)}
	for _, v := range vals {
		got := FromBits(v.Kind, v.Bits())
		if !got.Equal(v) || got.Kind != v.Kind {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
}

func TestBitsPanicsOnString(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Bits on string did not panic")
		}
	}()
	_ = NewString("x").Bits()
}

func TestFromBitsPanicsOnString(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FromBits on string kind did not panic")
		}
	}()
	_ = FromBits(String, 0)
}

func TestDateRoundTripKnown(t *testing.T) {
	tests := []struct {
		s    string
		days int64
	}{
		{"1970-01-01", 0},
		{"1970-01-02", 1},
		{"1969-12-31", -1},
		{"2000-03-01", 11017},
		{"1992-01-01", 8035},
		{"1998-08-02", 10440},
	}
	for _, tc := range tests {
		got, err := ParseDate(tc.s)
		if err != nil {
			t.Fatalf("ParseDate(%q): %v", tc.s, err)
		}
		if got != tc.days {
			t.Errorf("ParseDate(%q) = %d, want %d", tc.s, got, tc.days)
		}
		if back := FormatDate(tc.days); back != tc.s {
			t.Errorf("FormatDate(%d) = %q, want %q", tc.days, back, tc.s)
		}
	}
}

func TestParseDateErrors(t *testing.T) {
	for _, s := range []string{"not-a-date", "1995-13-01", "1995-00-10", "1995-01-40", ""} {
		if _, err := ParseDate(s); err == nil {
			t.Errorf("ParseDate(%q) succeeded, want error", s)
		}
	}
}

func TestMustParseDatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParseDate on junk did not panic")
		}
	}()
	MustParseDate("junk")
}

// Property: civil -> days -> civil is the identity over a wide range.
func TestDateRoundTripProperty(t *testing.T) {
	f := func(off int32) bool {
		days := int64(off) % 200000 // ~±547 years around the epoch
		y, m, d := CivilFromDays(days)
		return DaysFromCivil(y, m, d) == days
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: consecutive days differ by exactly one calendar day.
func TestDateMonotonic(t *testing.T) {
	prevY, prevM, prevD := CivilFromDays(7999)
	for days := int64(8000); days < 8000+3000; days++ {
		y, m, d := CivilFromDays(days)
		if y < prevY || (y == prevY && m < prevM) || (y == prevY && m == prevM && d <= prevD) {
			t.Fatalf("date not increasing at %d: %04d-%02d-%02d after %04d-%02d-%02d",
				days, y, m, d, prevY, prevM, prevD)
		}
		prevY, prevM, prevD = y, m, d
	}
}

func TestHashBytesMatchesHashString(t *testing.T) {
	inputs := []string{"", "a", "hello world", "lineitem|shipdate"}
	for _, s := range inputs {
		if HashBytes([]byte(s)) != HashString(s) {
			t.Errorf("HashBytes/HashString disagree on %q", s)
		}
	}
}

func TestMix64Avalanche(t *testing.T) {
	// Flipping one input bit should flip a substantial number of output
	// bits on average — a weak but effective avalanche sanity check.
	total := 0
	const trials = 64
	for bit := 0; bit < trials; bit++ {
		a := Mix64(0x12345678)
		b := Mix64(0x12345678 ^ (1 << uint(bit)))
		diff := a ^ b
		n := 0
		for diff != 0 {
			n += int(diff & 1)
			diff >>= 1
		}
		total += n
	}
	avg := float64(total) / trials
	if avg < 20 || avg > 44 {
		t.Errorf("avalanche average %f out of plausible range", avg)
	}
}

func TestHashCombineOrderSensitive(t *testing.T) {
	a := HashCombine(Mix64(1), Mix64(2))
	b := HashCombine(Mix64(2), Mix64(1))
	if a == b {
		t.Error("HashCombine should be order sensitive")
	}
}

// Property: equal byte strings hash equal; a one-byte change changes the
// hash (no formal guarantee, but a collision here would be a red flag in
// a 64-bit space for short deterministic inputs).
func TestHashBytesProperty(t *testing.T) {
	f := func(b []byte) bool {
		h1 := HashBytes(b)
		h2 := HashBytes(append([]byte(nil), b...))
		if h1 != h2 {
			return false
		}
		mutated := append([]byte(nil), b...)
		mutated = append(mutated, 0x5a)
		return HashBytes(mutated) != h1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
