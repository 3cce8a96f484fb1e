package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"hashstash"
	"hashstash/internal/types"
)

// refCell is a cell as encoding/json receives it: the engine value's
// number or string form.
func refCell(v types.Value) any {
	switch v.Kind {
	case types.Int64:
		return v.I
	case types.Float64:
		return v.F
	case types.String:
		return v.S
	}
	return v.String()
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
	switch rng.IntN(4) {
	case 0:
		ints := []int64{math.MinInt64, math.MaxInt64, 0, -1, 1}
		if rng.IntN(4) == 0 {
			return types.NewInt(ints[rng.IntN(len(ints))])
		}
		return types.NewInt(rng.Int64() >> rng.IntN(64))
	case 1:
		return types.NewFloat(randFloat(rng))
	case 2:
		return types.NewString(randString(rng))
	}
	return types.NewDate(rng.Int64N(40000) - 10000)
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
		got = appendCell(got[:0], v)
		if !bytes.Equal(got, want) {
			t.Fatalf("%#v: got %s, want %s", v, got, want)
		}
	}
}

// TestAppendResultMatchesEncodingJSON: whole responses of both protocols
// match encoding/json, including empty results, nil columns and the
// line protocol's omitempty fields.
func TestAppendResultMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 2))
	modes := []string{"", "solo", "batched", "bypass-<shape>"}
	for i := 0; i < 2000; i++ {
		res := &hashstash.Result{}
		if rng.IntN(8) != 0 {
			res.Columns = make([]string, rng.IntN(4))
			for c := range res.Columns {
				res.Columns[c] = randString(rng)
			}
		}
		if rng.IntN(8) != 0 {
			res.Rows = make([][]hashstash.Value, rng.IntN(6))
			for r := range res.Rows {
				res.Rows[r] = make([]hashstash.Value, rng.IntN(4))
				for c := range res.Rows[r] {
					res.Rows[r][c] = randValue(rng)
				}
			}
		}
		info := QueryInfo{Batched: rng.IntN(2) == 0, Mode: modes[rng.IntN(len(modes))]}

		rows := make([][]any, len(res.Rows))
		for r, row := range res.Rows {
			rows[r] = make([]any, len(row))
			for c, v := range row {
				rows[r][c] = refCell(v)
			}
		}
		want := refEncode(t, refQuery{Columns: res.Columns, Rows: rows, Batched: info.Batched, Mode: info.Mode})
		if got := appendResult(nil, res, info, false); !bytes.Equal(got, want) {
			t.Fatalf("http body:\n got %s\nwant %s", got, want)
		}
		want = refEncode(t, refLine{Columns: res.Columns, Rows: rows, Batched: info.Batched, Mode: info.Mode})
		if got := appendResult(nil, res, info, true); !bytes.Equal(got, want) {
			t.Fatalf("line:\n got %s\nwant %s", got, want)
		}
	}
}

// TestAppendCellNonFinite: NaN and ±Inf, which encoding/json refuses,
// encode as null.
func TestAppendCellNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := appendCell(nil, types.NewFloat(f)); string(got) != "null" {
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
