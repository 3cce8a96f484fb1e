// Package types defines the value model shared by all HashStash
// components: column kinds, scalar values, date arithmetic and the hash
// functions used by the chained hash tables.
//
// All fixed-width payload encodings in the system store one column in
// exactly 8 bytes (a string is stored as its code in the catalog's
// dictionary, storage.Dict), so Kind.Width is constant; it exists to keep the tuple-width
// arithmetic of the cost model explicit at call sites.
package types

import (
	"fmt"
	"math"
	"strconv"
)

// Kind enumerates the column types supported by the engine.
type Kind uint8

const (
	// Int64 is a signed 64-bit integer column.
	Int64 Kind = iota
	// Float64 is a double-precision floating point column.
	Float64
	// String is a variable-length string column (dictionary-coded in
	// columns, vectors and payloads).
	String
	// Date is a calendar date stored as days since 1970-01-01.
	Date
)

// Width reports the number of bytes one value of this kind occupies in a
// fixed-width payload row.
func (k Kind) Width() int { return 8 }

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	case String:
		return "string"
	case Date:
		return "date"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Value is a scalar value tagged with its kind. The zero Value is the
// int64 zero.
type Value struct {
	Kind Kind
	I    int64 // Int64 and Date payload
	F    float64
	S    string
}

// NewInt returns an Int64 value.
func NewInt(v int64) Value { return Value{Kind: Int64, I: v} }

// NewFloat returns a Float64 value.
func NewFloat(v float64) Value { return Value{Kind: Float64, F: v} }

// NewString returns a String value.
func NewString(v string) Value { return Value{Kind: String, S: v} }

// NewDate returns a Date value holding days since the Unix epoch.
func NewDate(days int64) Value { return Value{Kind: Date, I: days} }

// AsFloat converts a numeric value to float64. Strings yield NaN.
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case Float64:
		return v.F
	case Int64, Date:
		return float64(v.I)
	}
	return math.NaN()
}

// AsInt converts a numeric value to int64, truncating floats.
func (v Value) AsInt() int64 {
	switch v.Kind {
	case Float64:
		return int64(v.F)
	case Int64, Date:
		return v.I
	}
	return 0
}

// Compare orders two values of the same kind. It returns -1, 0 or +1.
// Comparing values of different numeric kinds compares them as floats,
// in CompareNum's order (NaN above +Inf).
func (v Value) Compare(o Value) int {
	if v.Kind == String || o.Kind == String {
		switch {
		case v.S < o.S:
			return -1
		case v.S > o.S:
			return 1
		}
		return 0
	}
	if v.Kind == Float64 || o.Kind == Float64 {
		return CompareNum(v.AsFloat(), o.AsFloat())
	}
	return CompareNum(v.I, o.I)
}

// CompareNum is the engine's one numeric order, returning -1, 0 or +1.
// It is total: NaN sorts above +Inf and equals every NaN, as in
// PostgreSQL. Value.Compare, the sort orders and the float filter
// kernels all follow it, so an interval the box algebra finds empty
// keeps no row anywhere.
func CompareNum[T int64 | float64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	case a != a && b != b:
		return 0
	case a != a:
		return 1
	}
	return -1
}

// Equal reports value equality under Compare semantics.
func (v Value) Equal(o Value) bool { return v.Compare(o) == 0 }

// String implements fmt.Stringer; dates render as yyyy-mm-dd.
func (v Value) String() string {
	switch v.Kind {
	case Int64:
		return strconv.FormatInt(v.I, 10)
	case Float64:
		return strconv.FormatFloat(v.F, 'f', -1, 64)
	case String:
		return v.S
	case Date:
		return FormatDate(v.I)
	}
	return "?"
}

// Bits returns the 8-byte payload encoding of the value. Strings must be
// coded by the caller; Bits panics on String values to catch misuse.
func (v Value) Bits() uint64 {
	switch v.Kind {
	case Int64, Date:
		return uint64(v.I)
	case Float64:
		return math.Float64bits(v.F)
	}
	panic("types: Bits called on string value; code it first")
}

// FromBits decodes an 8-byte payload encoding produced by Bits.
func FromBits(k Kind, bits uint64) Value {
	switch k {
	case Int64:
		return Value{Kind: Int64, I: int64(bits)}
	case Date:
		return Value{Kind: Date, I: int64(bits)}
	case Float64:
		return Value{Kind: Float64, F: math.Float64frombits(bits)}
	}
	panic("types: FromBits on string kind")
}
