package hashstash

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"hashstash/internal/types"
)

// The differential widening harness. Seeded query sequences move a
// predicate window narrow → wide → overlapping → narrower → wider still
// over join-build and aggregate shapes keyed by int, date and string
// columns, plus shared-plan batches whose second batch re-tags the
// first one's cached tables. Each sequence runs under AlwaysReuse (every
// partial or overlapping candidate widens a cached table) and
// NeverReuse, at Parallelism {1, 4}, and on the materialized baseline
// (it must never widen, and must reuse some table exactly or
// subsumingly) at Parallelism {1, 4}. Every answer must equal the
// reference engine's — NeverReuse, serial — within float tolerance, and
// after every step the cache and table invariants hold and no entry is
// left pinned.

// Table sizes, and the d_day/f_day domain: diffDays days from diffDay0
// (1995-01-01 in days since the epoch).
const (
	diffDay0  = 9131
	diffDays  = 160
	diffDims  = 240
	diffFacts = 2400
)

// diffData generates the two tables of one seed: dim (the build side of
// every join shape) and fact (the probe side).
func diffData(seed int64) (dim, fact [][]Value) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < diffDims; i++ {
		dim = append(dim, []Value{
			types.NewInt(int64(i)),
			types.NewDate(diffDay0 + int64(rng.Intn(diffDays))),
			types.NewString(fmt.Sprintf("t%02d", rng.Intn(30))),
			types.NewInt(int64(rng.Intn(1000))),
			types.NewString(fmt.Sprintf("c%d", rng.Intn(6))),
		})
	}
	for i := 0; i < diffFacts; i++ {
		fact = append(fact, []Value{
			types.NewInt(int64(i)),
			types.NewInt(int64(rng.Intn(diffDims + 40))), // some refs match no dim row
			types.NewDate(diffDay0 + int64(rng.Intn(diffDays))),
			types.NewString(fmt.Sprintf("t%02d", rng.Intn(34))),
			types.NewInt(int64(1 + rng.Intn(50))),
			types.NewFloat(float64(rng.Intn(100000)) / 7),
		})
	}
	return dim, fact
}

func openDiffDB(t *testing.T, seed int64, opts ...Option) *DB {
	t.Helper()
	db := Open(opts...)
	dim, fact := diffData(seed)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.CreateTable("dim", map[string]Kind{
		"d_id": types.Int64, "d_day": types.Date, "d_tag": types.String, "d_w": types.Int64, "d_cat": types.String,
	}, []string{"d_id", "d_day", "d_tag", "d_w", "d_cat"}))
	must(db.CreateTable("fact", map[string]Kind{
		"f_id": types.Int64, "f_ref": types.Int64, "f_day": types.Date, "f_tag": types.String, "f_qty": types.Int64, "f_val": types.Float64,
	}, []string{"f_id", "f_ref", "f_day", "f_tag", "f_qty", "f_val"}))
	must(db.InsertRows("dim", dim))
	must(db.InsertRows("fact", fact))
	return db
}

// diffShape renders one query of a shape for the window [lo, hi) of its
// window column.
type diffShape struct {
	name   string
	lo, hi int // window column domain
	render func(lo, hi int) string
}

func dayLit(d int) string { return "DATE '" + types.FormatDate(int64(diffDay0+d)) + "'" }

var diffShapes = []diffShape{
	{"join-int", 0, 1000, func(lo, hi int) string {
		return fmt.Sprintf(`SELECT f.f_id, d.d_cat, f.f_val FROM dim d, fact f
			WHERE d.d_id = f.f_ref AND d.d_w >= %d AND d.d_w < %d`, lo, hi)
	}},
	{"join-date", 0, 1000, func(lo, hi int) string {
		return fmt.Sprintf(`SELECT f.f_id, d.d_id FROM dim d, fact f
			WHERE d.d_day = f.f_day AND d.d_w >= %d AND d.d_w < %d AND f.f_qty < 6`, lo, hi)
	}},
	{"join-string", 0, 1000, func(lo, hi int) string {
		return fmt.Sprintf(`SELECT f.f_id, d.d_id FROM dim d, fact f
			WHERE d.d_tag = f.f_tag AND d.d_w >= %d AND d.d_w < %d AND f.f_qty < 4`, lo, hi)
	}},
	{"agg-int", 0, diffDims + 40, func(lo, hi int) string {
		return fmt.Sprintf(`SELECT f.f_ref, SUM(f.f_val) AS s, COUNT(*) AS n FROM fact f
			WHERE f.f_ref >= %d AND f.f_ref < %d GROUP BY f.f_ref`, lo, hi)
	}},
	{"agg-date", 0, diffDays, func(lo, hi int) string {
		return fmt.Sprintf(`SELECT f.f_day, SUM(f.f_qty) AS q, SUM(f.f_val) AS s FROM fact f
			WHERE f.f_day >= %s AND f.f_day < %s GROUP BY f.f_day`, dayLit(lo), dayLit(hi))
	}},
	{"agg-string", 0, diffDays, func(lo, hi int) string {
		return fmt.Sprintf(`SELECT f.f_tag, SUM(f.f_val) AS s, COUNT(*) AS n FROM fact f
			WHERE f.f_day >= %s AND f.f_day < %s GROUP BY f.f_tag`, dayLit(lo), dayLit(hi))
	}},
	{"agg-join", 0, 1000, func(lo, hi int) string {
		return fmt.Sprintf(`SELECT d.d_cat, SUM(f.f_val) AS s, COUNT(*) AS n FROM dim d, fact f
			WHERE d.d_id = f.f_ref AND d.d_w >= %d AND d.d_w < %d GROUP BY d.d_cat`, lo, hi)
	}},
	{"agg-join-avg-min", 0, 1000, func(lo, hi int) string {
		return fmt.Sprintf(`SELECT f.f_tag, AVG(f.f_val) AS a, MIN(f.f_day) AS m FROM dim d, fact f
			WHERE d.d_id = f.f_ref AND d.d_w >= %d AND d.d_w < %d GROUP BY f.f_tag`, lo, hi)
	}},
}

// shapeNamed returns the diffShapes entry named name.
func shapeNamed(name string) diffShape {
	return diffShapes[slices.IndexFunc(diffShapes, func(sh diffShape) bool { return sh.name == name })]
}

// diffStep is one step of a sequence: a solo query, or a batch run
// through the batch interface. covered marks a batch whose windows the
// previous batch's hull covers, so a shared plan re-tags its tables.
type diffStep struct {
	shape   string
	sqls    []string
	batch   bool
	covered bool
}

// diffSequence generates the steps for one seed: per shape, a window
// that starts narrow, widens (partial reuse), slides past its end
// (overlapping reuse), narrows (subsuming reuse) and widens over
// everything seen; then pairs of batches, the second covered by the
// first so its shared plan re-tags the cached tables: of a join shape,
// of an aggregate shape, of the AVG/MIN-over-a-date shape, and of two
// aggregates grouping one spine by different keys (two grouping tables
// in one shared plan).
func diffSequence(rng *rand.Rand) []diffStep {
	var steps []diffStep
	for _, sh := range diffShapes {
		solo := func(sql string) { steps = append(steps, diffStep{shape: sh.name, sqls: []string{sql}}) }
		span := sh.hi - sh.lo
		w := span/8 + rng.Intn(span/8)
		lo := sh.lo + rng.Intn(span/2)
		hi := lo + w
		solo(sh.render(lo, hi))
		wlo, whi := max(sh.lo, lo-w/2-rng.Intn(w/2+1)), min(sh.hi, hi+w/2+rng.Intn(w/2+1))
		solo(sh.render(wlo, whi))
		olo, ohi := whi-w/3-1, min(sh.hi, whi+w/2+1)
		solo(sh.render(olo, ohi))
		solo(sh.render(wlo+1, whi-1))
		solo(sh.render(max(sh.lo, wlo-w/4), min(sh.hi, ohi+w/4)))
	}
	join, agg := diffShapes[rng.Intn(3)], diffShapes[3+rng.Intn(4)]
	avgMin := shapeNamed("agg-join-avg-min")
	for _, pair := range [][2]diffShape{{join, join}, {agg, agg}, {avgMin, avgMin}, {shapeNamed("agg-join"), avgMin}} {
		a, b := pair[0], pair[1]
		name := a.name
		if b.name != a.name {
			name += "+" + b.name
		}
		span := a.hi - a.lo
		lo := a.lo + rng.Intn(span/4)
		hi := lo + span/2
		steps = append(steps,
			diffStep{shape: name, sqls: []string{a.render(lo, hi-span/8), b.render(lo+span/8, hi)}, batch: true},
			diffStep{shape: name, sqls: []string{a.render(lo+span/16, hi-span/4), b.render(lo+span/4, hi-span/16)}, batch: true, covered: true},
		)
	}
	return steps
}

// diffAnswer is a result normalized for tolerance comparison: exact
// cells joined into a sort key, float cells kept aside.
type diffAnswer []diffRow

type diffRow struct {
	exact  string
	floats []float64
}

func normalize(res *Result) diffAnswer {
	out := make(diffAnswer, len(res.Rows))
	for i, row := range res.Rows {
		var parts []string
		var floats []float64
		for _, v := range row {
			if v.Kind == types.Float64 {
				floats = append(floats, v.F)
				continue
			}
			parts = append(parts, v.String())
		}
		out[i] = diffRow{exact: strings.Join(parts, "|"), floats: floats}
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].exact != out[b].exact {
			return out[a].exact < out[b].exact
		}
		for j := range out[a].floats {
			if out[a].floats[j] != out[b].floats[j] {
				return out[a].floats[j] < out[b].floats[j]
			}
		}
		return false
	})
	return out
}

// sameAnswer compares row multisets: exact cells exactly, floats within
// a relative 1e-9 (serial and parallel runs add in different orders).
func sameAnswer(want, got diffAnswer) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.exact != g.exact || len(w.floats) != len(g.floats) {
			return fmt.Errorf("row %d: %q %v, want %q %v", i, g.exact, g.floats, w.exact, w.floats)
		}
		for j := range w.floats {
			a, b := w.floats[j], g.floats[j]
			if a != b && math.Abs(a-b) > 1e-9*math.Max(math.Abs(a), math.Abs(b)) {
				return fmt.Errorf("row %d %q float %d: %v, want %v", i, w.exact, j, b, a)
			}
		}
	}
	return nil
}

// checkAtRest runs the cache's invariant checks and asserts no query
// left a pin behind.
func checkAtRest(db *DB) error {
	if err := db.cache.CheckInvariants(); err != nil {
		return err
	}
	if p := db.CacheStats().Pinned; p != 0 {
		return fmt.Errorf("%d entries pinned at rest", p)
	}
	return nil
}

// runStep executes a step and reports whether a shared plan ran.
func runStep(db *DB, st diffStep) ([]*Result, bool, error) {
	if !st.batch {
		res, err := db.Exec(st.sqls[0])
		return []*Result{res}, false, err
	}
	queries := make([]*Query, len(st.sqls))
	for i, sql := range st.sqls {
		q, err := db.Parse(sql)
		if err != nil {
			return nil, false, err
		}
		queries[i] = q
	}
	br, err := db.ExecParsedBatch(context.Background(), queries)
	if err != nil {
		return nil, false, err
	}
	return br.Results, len(br.Groups) < len(queries), nil
}

// TestWidenDifferential is the harness entry point: three seeds, each
// run under every strategy × Parallelism {1, 4}.
func TestWidenDifferential(t *testing.T) {
	type tally struct{ partialBuild, overlapBuild, partialAgg, overlapAgg, published, retagHits int64 }
	var total tally
	for _, seed := range []int64{1, 2, 3} {
		steps := diffSequence(rand.New(rand.NewSource(seed)))
		ref := openDiffDB(t, seed, WithStrategy(NeverReuse), WithTuning(Tuning{Parallelism: 1}))
		want := make([][]diffAnswer, len(steps))
		for i, st := range steps {
			for _, sql := range st.sqls {
				res, err := ref.Exec(sql)
				if err != nil {
					t.Fatalf("seed %d step %d reference: %v\n%s", seed, i, err, sql)
				}
				want[i] = append(want[i], normalize(res))
			}
		}
		type config struct {
			strategy Strategy
			par      int
		}
		var configs []config
		for _, strategy := range []Strategy{CostModel, AlwaysReuse, NeverReuse, Materialized} {
			for _, par := range []int{1, 4} {
				configs = append(configs, config{strategy, par})
			}
		}
		for _, cfg := range configs {
			name := fmt.Sprintf("seed=%d/%v/par=%d", seed, cfg.strategy, cfg.par)
			materialized := cfg.strategy == Materialized
			reused := 0
			db := openDiffDB(t, seed, WithStrategy(cfg.strategy),
				WithTuning(Tuning{Parallelism: cfg.par, MorselRows: 256}))
			for i, st := range steps {
				before := db.CacheStats()
				results, shared, err := runStep(db, st)
				if err != nil {
					t.Fatalf("%s step %d (%s): %v\n%s", name, i, st.shape, err, strings.Join(st.sqls, "\n"))
				}
				for j, res := range results {
					if err := sameAnswer(want[i][j], normalize(res)); err != nil {
						t.Fatalf("%s step %d (%s) query %d: %v\n%s", name, i, st.shape, j, err, st.sqls[j])
					}
					for _, d := range res.Decisions {
						build := strings.HasPrefix(d.Operator, "build")
						mode := d.Mode.String()
						if materialized && (mode == "partial" || mode == "overlapping") {
							t.Fatalf("%s step %d (%s) query %d: the baseline took a %s decision", name, i, st.shape, j, mode)
						}
						switch mode {
						case "exact", "subsuming":
							reused++
						case "partial":
							if build {
								total.partialBuild++
							} else {
								total.partialAgg++
							}
						case "overlapping":
							if build {
								total.overlapBuild++
							} else {
								total.overlapAgg++
							}
						}
					}
				}
				if err := checkAtRest(db); err != nil {
					t.Fatalf("%s step %d (%s): %v", name, i, st.shape, err)
				}
				if st.covered && shared {
					// A shared plan reuses only shared tables, so
					// its hits are re-tags.
					total.retagHits += db.CacheStats().Hits - before.Hits
				}
			}
			if cfg.strategy == AlwaysReuse {
				total.published += db.CacheStats().WidenPublished
			}
			if materialized && reused == 0 {
				t.Errorf("%s: the baseline never reused a cached table exactly or subsumingly", name)
			}
		}
	}
	t.Logf("reuse cases fired: %+v", total)
	if total.partialBuild == 0 || total.overlapBuild == 0 || total.partialAgg == 0 || total.overlapAgg == 0 {
		t.Errorf("a widening case never fired: %+v", total)
	}
	if total.published == 0 {
		t.Error("no widened snapshot was ever published")
	}
	if total.retagHits == 0 {
		t.Error("no batch ever reused a shared table")
	}
}
