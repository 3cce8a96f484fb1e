package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"hashstash"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// refCell is a cell as encoding/json receives it: the engine value's
// number or string form, a date formatted by fmt.
func refCell(v types.Value) any {
	switch v.Kind {
	case types.Int64:
		return v.I
	case types.Float64:
		return v.F
	case types.String:
		return v.S
	}
	y, m, d := types.CivilFromDays(v.I)
	return fmt.Sprintf("%04d-%02d-%02d", y, m, d)
}

// refQuery and refLine are the POST /query and line-protocol success
// bodies in the form encoding/json encodes them.
type refQuery struct {
	Columns []string `json:"columns"`
	Rows    [][]any  `json:"rows"`
	Batched bool     `json:"batched"`
	Mode    string   `json:"mode"`
}

type refLine struct {
	Columns []string `json:"columns,omitempty"`
	Rows    [][]any  `json:"rows,omitempty"`
	Batched bool     `json:"batched"`
	Mode    string   `json:"mode,omitempty"`
}

func refEncode(t *testing.T, body any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// alphabet holds every character class appendString escapes or passes
// through differently: JSON and HTML specials, control bytes, DEL,
// multi-byte runes, the JavaScript line separators and invalid UTF-8.
var alphabet = []string{
	"a", "Z", "0", " ", "/", `"`, `\`, "<", ">", "&", "\n", "\t", "\r",
	"\b", "\f", "\x01", "\x1f", "\x7f", "é", "€", "\U0001d11e", "\u2028", "\u2029",
	"\xff", "\xc3", "\xe2\x80", "\xed\xa0\x80",
}

func randString(rng *rand.Rand) string {
	var b strings.Builder
	for n := rng.IntN(12); n > 0; n-- {
		b.WriteString(alphabet[rng.IntN(len(alphabet))])
	}
	return b.String()
}

// randFloat draws finite floats around encoding/json's 'f'/'e' cut-overs
// (1e-6 and 1e21), at the extremes of the range, and at random scales.
func randFloat(rng *rand.Rand) float64 {
	sign := 1.0
	if rng.IntN(2) == 0 {
		sign = -1
	}
	switch rng.IntN(8) {
	case 0:
		edges := []float64{0, math.Copysign(0, -1), 1e-6, 1e21, math.MaxFloat64, math.SmallestNonzeroFloat64, 1, 0.1}
		return sign * edges[rng.IntN(len(edges))]
	case 1:
		edge := []float64{1e-6, 1e21}[rng.IntN(2)]
		f := edge
		for k := rng.IntN(4); k > 0; k-- {
			f = math.Nextafter(f, math.Inf(2*rng.IntN(2)-1))
		}
		return sign * f
	case 2:
		return sign * float64(rng.Int64N(1<<53))
	case 3:
		return math.Float64frombits(rng.Uint64() &^ (0x7ff << 52)) // subnormal or zero
	default:
		return sign * rng.Float64() * math.Pow(10, float64(rng.IntN(60)-30))
	}
}

func randValue(rng *rand.Rand) types.Value {
	return randValueOf(rng, []types.Kind{types.Int64, types.Float64, types.String, types.Date}[rng.IntN(4)])
}

func randValueOf(rng *rand.Rand, kind types.Kind) types.Value {
	switch kind {
	case types.Int64:
		ints := []int64{math.MinInt64, math.MaxInt64, 0, -1, 1}
		if rng.IntN(4) == 0 {
			return types.NewInt(ints[rng.IntN(len(ints))])
		}
		return types.NewInt(rng.Int64() >> rng.IntN(64))
	case types.Float64:
		return types.NewFloat(randFloat(rng))
	case types.String:
		return types.NewString(randString(rng))
	}
	return types.NewDate(rng.Int64N(40000) - 10000)
}

// column returns a one-column vector of vals' kind holding vals.
func column(kind types.Kind, vals ...types.Value) storage.Vec {
	v := storage.Vec{Kind: kind}
	for _, x := range vals {
		v.Append(x)
	}
	return v
}

// boxed is the answer of res row by row, as encoding/json receives it.
func boxed(res *hashstash.Result) [][]any {
	res.Box()
	rows := make([][]any, len(res.Rows))
	for r, row := range res.Rows {
		rows[r] = make([]any, len(row))
		for c, v := range row {
			rows[r][c] = refCell(v)
		}
	}
	return rows
}

// TestAppendCellMatchesEncodingJSON: every finite cell encodes to the
// bytes encoding/json writes for it.
func TestAppendCellMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 1))
	var got []byte
	for i := 0; i < 120_000; i++ {
		v := randValue(rng)
		want, err := json.Marshal(refCell(v))
		if err != nil {
			t.Fatalf("%#v: %v", v, err)
		}
		col := column(v.Kind, v)
		got = appendCell(got[:0], &col, 0)
		if !bytes.Equal(got, want) {
			t.Fatalf("%#v: got %s, want %s", v, got, want)
		}
	}
}

// checkEncoding compares appendResult's bytes for res with
// encoding/json's over the same answer boxed, in both framings: the
// POST /query body and the line protocol's omitempty form.
func checkEncoding(t *testing.T, res *hashstash.Result, info QueryInfo) {
	t.Helper()
	http := appendResult(nil, res, info, false)
	line := appendResult(nil, res, info, true)
	rows := boxed(res)
	if want := refEncode(t, refQuery{Columns: res.Columns, Rows: rows, Batched: info.Batched, Mode: info.Mode}); !bytes.Equal(http, want) {
		t.Fatalf("http body:\n got %s\nwant %s", http, want)
	}
	if want := refEncode(t, refLine{Columns: res.Columns, Rows: rows, Batched: info.Batched, Mode: info.Mode}); !bytes.Equal(line, want) {
		t.Fatalf("line:\n got %s\nwant %s", line, want)
	}
}

// TestAppendResultMatchesEncodingJSON: whole responses of both protocols
// match encoding/json over the same answer boxed, including empty
// results, nil columns and the line protocol's omitempty fields.
func TestAppendResultMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 2))
	modes := []string{"", "solo", "batched", "bypass-<shape>"}
	kinds := []types.Kind{types.Int64, types.Float64, types.String, types.Date}
	for i := 0; i < 2000; i++ {
		res := &hashstash.Result{}
		width := rng.IntN(4)
		if rng.IntN(8) != 0 {
			res.Columns = make([]string, width)
			for c := range res.Columns {
				res.Columns[c] = randString(rng)
			}
		}
		if rng.IntN(8) != 0 {
			n := rng.IntN(6)
			res.Vecs = make([]storage.Vec, width)
			for c := range res.Vecs {
				res.Vecs[c].Kind = kinds[rng.IntN(len(kinds))]
				for range n {
					res.Vecs[c].Append(randValueOf(rng, res.Vecs[c].Kind))
				}
			}
		}
		checkEncoding(t, res, QueryInfo{Batched: rng.IntN(2) == 0, Mode: modes[rng.IntN(len(modes))]})
	}
}

// TestEncoderDifferential: the columnar encoder against encoding/json
// over the boxed rows, one column per kind, at the edge values: NaN and
// ±Inf (null), -0, the 'f'/'e' cut-overs 1e-7 and 1e21, full-precision
// doubles shaped like the generator's prices, the number kernel's
// boundaries (its exponent range 2^-11 … 2^53 and the doubles just
// outside, a binade bottom, a tie, 2^53±1), dates across the year
// range, and strings that need escaping or replacement.
func TestEncoderDifferential(t *testing.T) {
	floats := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		1e-7, -1e-7, 1e-6, 1e21, -1e21, 1e20, 123456789012345678901,
		0.1 + 0.2, 1.0 / 3, math.Pi * 1e5, math.MaxFloat64, math.SmallestNonzeroFloat64,
		37541.97 * 1.0000001, 901.0 * (1 - 0.04) * (1 + 0.02), 104949.5 / 7,
		math.Ldexp(1, -11), math.Nextafter(math.Ldexp(1, -11), 1), -math.Nextafter(math.Ldexp(1, -11), 0),
		math.Ldexp(3, -13), 0.0625, 1 << 52, 1<<52 - 0.5, -(1<<52 + 1), 1<<53 - 1, 1 << 53, -(1<<53 + 2),
		8 + 1.0/65536, 0.04, 0.96, 1 - 0.07,
	}
	strs := []string{
		"", "plain", `a"quote`, `back\slash`, "<tag>&amp;", "line\nfeed\ttab\rcr",
		"\x00\x01\x1f\x7f", "\b\f", "\xff\xfe", "ok\xc3", "\xed\xa0\x80", "sep\u2028par\u2029",
		"é€\U0001d11e",
	}
	dates := []int64{
		types.MustParseDate("1992-01-01"), types.MustParseDate("1998-12-31"),
		types.MustParseDate("0001-01-01"), types.MustParseDate("9999-12-31"),
		0, -1, -800_000, 3_000_000,
	}
	ints := []int64{0, -1, 1, math.MinInt64, math.MaxInt64, 1 << 53, -(1 << 53) - 1}
	n := max(len(floats), len(strs), len(dates), len(ints))
	res := &hashstash.Result{
		Columns: []string{"i", "f", "s", "d"},
		Vecs: []storage.Vec{
			{Kind: types.Int64}, {Kind: types.Float64}, {Kind: types.String}, {Kind: types.Date},
		},
	}
	for r := range n {
		res.Vecs[0].Ints = append(res.Vecs[0].Ints, ints[r%len(ints)])
		res.Vecs[1].Floats = append(res.Vecs[1].Floats, floats[r%len(floats)])
		res.Vecs[2].Append(types.NewString(strs[r%len(strs)]))
		res.Vecs[3].Ints = append(res.Vecs[3].Ints, dates[r%len(dates)])
	}
	// encoding/json refuses non-finite floats; the server writes null,
	// which is what encoding/json writes for a nil interface.
	rows := boxed(res)
	for _, row := range rows {
		if f := row[1].(float64); math.IsNaN(f) || math.IsInf(f, 0) {
			row[1] = nil
		}
	}
	for _, info := range []QueryInfo{{Mode: "solo"}, {Batched: true, Mode: "batched"}, {}} {
		http := appendResult(nil, res, info, false)
		if want := refEncode(t, refQuery{Columns: res.Columns, Rows: rows, Batched: info.Batched, Mode: info.Mode}); !bytes.Equal(http, want) {
			t.Fatalf("http body:\n got %s\nwant %s", http, want)
		}
		line := appendResult(nil, res, info, true)
		if want := refEncode(t, refLine{Columns: res.Columns, Rows: rows, Batched: info.Batched, Mode: info.Mode}); !bytes.Equal(line, want) {
			t.Fatalf("line:\n got %s\nwant %s", line, want)
		}
	}
}

// TestAppendCellNonFinite: NaN and ±Inf, which encoding/json refuses,
// encode as null.
func TestAppendCellNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		col := column(types.Float64, types.NewFloat(f))
		if got := appendCell(nil, &col, 0); string(got) != "null" {
			t.Errorf("%v encodes as %s, want null", f, got)
		}
	}
}

// TestPutBufDropsLargeBuffers: buffers past maxPooledBuf are not kept.
func TestPutBufDropsLargeBuffers(t *testing.T) {
	big := make([]byte, 0, maxPooledBuf+1)
	putBuf(&big)
	for i := 0; i < 8; i++ {
		if b := getBuf(); cap(*b) > maxPooledBuf {
			t.Fatalf("pool returned a %d-byte buffer", cap(*b))
		}
	}
}
