package main

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"hashstash"
	"hashstash/internal/types"
)

// floatTolerance is the relative difference allowed between two float
// cells: serial, parallel and sharded runs add in different orders.
const floatTolerance = 1e-9

// answer is a query result in wire form: a cell is a float64 (integers
// and floats alike, as JSON has one number type) or a string (strings
// and dates).
type answer [][]any

// answerOf converts an engine result the way the server's JSON encoder
// does, and reports which columns hold floats.
func answerOf(res *hashstash.Result) (answer, []bool) {
	out := make(answer, len(res.Rows))
	isFloat := make([]bool, len(res.Columns))
	for i, row := range res.Rows {
		cells := make([]any, len(row))
		for j, v := range row {
			switch v.Kind {
			case types.Int64:
				cells[j] = float64(v.I)
			case types.Float64:
				cells[j] = v.F
				isFloat[j] = true
			default:
				cells[j] = v.String()
			}
		}
		out[i] = cells
	}
	return out, isFloat
}

// parseAnswer decodes a POST /query success body.
func parseAnswer(body []byte) (answer, error) {
	var resp struct {
		Rows answer `json:"rows"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decode answer: %w", err)
	}
	return resp.Rows, nil
}

// reference is the engine answers are checked against: no reuse, no
// parallelism, no shards, so none of the mechanisms under test can
// share a fault with it.
type reference struct {
	db *hashstash.DB
}

func newReference(sf float64) (*reference, error) {
	db := hashstash.Open(
		hashstash.WithStrategy(hashstash.NeverReuse),
		hashstash.WithTuning(hashstash.Tuning{Parallelism: 1}))
	if err := db.LoadTPCH(sf); err != nil {
		return nil, fmt.Errorf("reference engine: %w", err)
	}
	return &reference{db: db}, nil
}

// check compares a wire answer with the reference engine's.
func (r *reference) check(q query, got answer) error {
	res, err := r.db.ExecParsed(context.Background(), q.plan)
	if err != nil {
		return fmt.Errorf("reference engine: %w", err)
	}
	want, isFloat := answerOf(res)
	return sameAnswer(q.plan, want, got, isFloat)
}

// sameAnswer compares two answers to q: as row multisets for plain
// queries, and by the ordered ORDER BY column for LIMIT queries, whose
// other columns are not determined when order keys tie at the cut.
func sameAnswer(q *hashstash.Query, want, got answer, isFloat []bool) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	if q.Limit > 0 && q.OrderBy != nil {
		col := -1
		for i, c := range q.Select {
			if c == q.OrderBy.Col {
				col = i
			}
		}
		if col < 0 {
			return fmt.Errorf("ORDER BY column %v not selected", q.OrderBy.Col)
		}
		for i := range want {
			if len(got[i]) <= col || !sameCell(want[i][col], got[i][col], isFloat[col]) {
				return fmt.Errorf("row %d: order column differs, want %v", i, want[i][col])
			}
		}
		return nil
	}
	want, got = sorted(want, isFloat), sorted(got, isFloat)
	for i := range want {
		if len(want[i]) != len(got[i]) {
			return fmt.Errorf("row %d: %d cells, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if !sameCell(want[i][j], got[i][j], isFloat[j]) {
				return fmt.Errorf("row %d column %d: got %v, want %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	return nil
}

func sameCell(want, got any, isFloat bool) bool {
	w, wok := want.(float64)
	g, gok := got.(float64)
	if !wok || !gok || !isFloat {
		return want == got
	}
	return w == g || math.Abs(w-g) <= floatTolerance*math.Max(math.Abs(w), math.Abs(g))
}

// sorted orders a copy of the rows by their exact columns first and
// their float columns last. Group keys are exact and unique, and float
// cells of ungrouped rows are copies of base data, so cells that may
// differ in the last bits never decide the order.
func sorted(a answer, isFloat []bool) answer {
	var order []int
	for _, float := range []bool{false, true} {
		for j, f := range isFloat {
			if f == float {
				order = append(order, j)
			}
		}
	}
	out := append(answer(nil), a...)
	sort.SliceStable(out, func(x, y int) bool {
		for _, j := range order {
			if j >= len(out[x]) || j >= len(out[y]) {
				return false
			}
			if c := compareCells(out[x][j], out[y][j]); c != 0 {
				return c < 0
			}
		}
		return false
	})
	return out
}

// compareCells orders numbers before strings.
func compareCells(a, b any) int {
	x, xNum := a.(float64)
	y, yNum := b.(float64)
	switch {
	case xNum && yNum:
		return cmp.Compare(x, y)
	case xNum:
		return -1
	case yNum:
		return 1
	}
	return strings.Compare(fmt.Sprint(a), fmt.Sprint(b))
}
