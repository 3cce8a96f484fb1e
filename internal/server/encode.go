package server

import (
	"math"
	"strconv"
	"sync"
	"unicode/utf8"

	"hashstash"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// Query results reach the wire through appendResult, which writes the
// JSON bytes encoding/json would write for the same response — same
// field order, number formats and string escaping — straight from the
// answer's typed columns (Result.Vecs), without reflection, per-cell
// interface values or boxed types.Value cells. A non-finite float,
// which encoding/json refuses to encode, becomes null.

// appendResult appends a successful query response and its newline:
// {"columns":…,"rows":…,"batched":…,"mode":…}. With omitEmpty (the line
// protocol) empty columns, rows and mode are left out. It reads only
// res.Columns and res.Vecs.
func appendResult(dst []byte, res *hashstash.Result, info QueryInfo, omitEmpty bool) []byte {
	dst = append(dst, '{')
	if !omitEmpty || len(res.Columns) > 0 {
		dst = append(dst, `"columns":`...)
		if res.Columns == nil {
			dst = append(dst, "null"...)
		} else {
			dst = append(dst, '[')
			for i, c := range res.Columns {
				if i > 0 {
					dst = append(dst, ',')
				}
				dst = appendString(dst, c)
			}
			dst = append(dst, ']')
		}
		dst = append(dst, ',')
	}
	if n := res.Len(); !omitEmpty || n > 0 {
		dst = append(dst, `"rows":[`...)
		for r := range n {
			if r > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, '[')
			for c := range res.Vecs {
				if c > 0 {
					dst = append(dst, ',')
				}
				dst = appendCell(dst, &res.Vecs[c], r)
			}
			dst = append(dst, ']')
		}
		dst = append(dst, "],"...)
	}
	dst = append(dst, `"batched":`...)
	dst = strconv.AppendBool(dst, info.Batched)
	if !omitEmpty || info.Mode != "" {
		dst = append(dst, `,"mode":`...)
		dst = appendString(dst, info.Mode)
	}
	return append(dst, "}\n"...)
}

// appendCell appends row r of a column, with one switch on its kind:
// integers and floats as JSON numbers, strings and dates (in their
// canonical yyyy-mm-dd form) as strings.
func appendCell(dst []byte, v *storage.Vec, r int) []byte {
	switch v.Kind {
	case types.Int64:
		return appendInt(dst, v.Ints[r])
	case types.Float64:
		return appendFloat(dst, v.Floats[r])
	case types.String:
		return appendString(dst, v.Dict.At(v.Strs[r]))
	case types.Date:
		dst = append(dst, '"')
		dst = types.AppendDate(dst, v.Ints[r])
		return append(dst, '"')
	}
	return append(dst, "null"...)
}

// appendFloat formats f like encoding/json: the shortest representation
// that round-trips, in 'f' notation for magnitudes in [1e-6, 1e21) and
// 'e' notation (with a two-digit minimum exponent trimmed to one)
// outside it. NaN and ±Inf have no JSON form and become null. The
// doubles appendShortest covers skip strconv.
func appendFloat(dst []byte, f float64) []byte {
	if out, ok := appendShortest(dst, f); ok {
		return out
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(dst, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string escaped the way encoding/json
// escapes by default: `"` and `\` backslashed, control characters as
// \n, \r, \t, \b, \f or \u00XX, the HTML-sensitive <, > and & as
// \u003c, \u003e and \u0026, U+2028 and U+2029 as \u2028 and \u2029,
// and each byte of invalid UTF-8 as \ufffd.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0 // s[start:i] is pending, needing no escape
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// maxPooledBuf caps the response buffers kept for reuse, so one huge
// answer does not stay resident for the life of the process.
const maxPooledBuf = 1 << 20

var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// getBuf returns an empty pooled response buffer.
func getBuf() *[]byte {
	b := bufPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// putBuf returns a buffer to the pool unless it grew past maxPooledBuf.
func putBuf(b *[]byte) {
	if cap(*b) <= maxPooledBuf {
		bufPool.Put(b)
	}
}
