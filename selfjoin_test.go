package hashstash

import (
	"fmt"
	"runtime"
	"testing"

	"hashstash/internal/storage"
)

// selfJoinCase is one lineitem self-join a ⋈ b on an equal column,
// grouped by l_returnflag of one instance, each side cut by a quantity
// ceiling (0: no filter).
type selfJoinCase struct {
	on           string // join column
	groupB       bool   // group by b.l_returnflag, else a.l_returnflag
	maxQA, maxQB int64  // l_quantity <= ceiling on a, on b
}

func (c selfJoinCase) sql() string {
	g := "a"
	if c.groupB {
		g = "b"
	}
	where := fmt.Sprintf("a.%s = b.%s", c.on, c.on)
	if c.maxQA > 0 {
		where += fmt.Sprintf(" AND a.l_quantity <= %d", c.maxQA)
	}
	if c.maxQB > 0 {
		where += fmt.Sprintf(" AND b.l_quantity <= %d", c.maxQB)
	}
	return fmt.Sprintf(`SELECT %s.l_returnflag, COUNT(*) AS n FROM lineitem a, lineitem b WHERE %s GROUP BY %s.l_returnflag`, g, where, g)
}

// want counts the join's rows per group straight from the table.
func (c selfJoinCase) want(t *testing.T, db *DB) map[string]int64 {
	t.Helper()
	tbl := db.cat.Table("lineitem")
	keys := tbl.Column(c.on).Ints
	flags := columnStrings(tbl.Column("l_returnflag"))
	qty := tbl.Column("l_quantity").Ints
	keep := func(i int, ceiling int64) bool { return ceiling <= 0 || qty[i] <= ceiling }
	// perKey[k] counts the other instance's surviving rows with key k.
	perKey := map[int64]int64{}
	other, own := c.maxQB, c.maxQA
	if c.groupB {
		other, own = own, other
	}
	for i := range keys {
		if keep(i, other) {
			perKey[keys[i]]++
		}
	}
	out := map[string]int64{}
	for i := range keys {
		if n := perKey[keys[i]]; n > 0 && keep(i, own) {
			out[flags[i]] += n
		}
	}
	return out
}

// columnStrings decodes a string column.
func columnStrings(c *storage.Column) []string {
	out := make([]string, c.Len())
	for i := range out {
		out[i] = c.Value(i).S
	}
	return out
}

// bothInstancesSQL groups a self-join by, and sums, the same columns of
// both instances.
const bothInstancesSQL = `SELECT a.l_returnflag, b.l_returnflag, COUNT(*) AS n,
	SUM(a.l_quantity) AS qa, SUM(b.l_quantity) AS qb FROM lineitem a, lineitem b
	WHERE a.l_orderkey = b.l_orderkey AND b.l_quantity < 10
	GROUP BY a.l_returnflag, b.l_returnflag`

// bothInstancesWant computes bothInstancesSQL's answer straight from
// the table, one "flagA|flagB" key per group: count, then the two sums.
func bothInstancesWant(db *DB) map[string][3]int64 {
	tbl := db.cat.Table("lineitem")
	okeys := tbl.Column("l_orderkey").Ints
	flags := columnStrings(tbl.Column("l_returnflag"))
	qty := tbl.Column("l_quantity").Ints
	byOrder := map[int64][]int{}
	for j, k := range okeys {
		if qty[j] < 10 {
			byOrder[k] = append(byOrder[k], j)
		}
	}
	out := map[string][3]int64{}
	for i, k := range okeys {
		for _, j := range byOrder[k] {
			g := out[flags[i]+"|"+flags[j]]
			out[flags[i]+"|"+flags[j]] = [3]int64{g[0] + 1, g[1] + qty[i], g[2] + qty[j]}
		}
	}
	return out
}

// TestSelfJoinAnswers: a self-join answers whichever instance is built
// or grouped by, under every strategy at one worker and at GOMAXPROCS.
// Counts are checked against the table itself. The l_suppkey cases are
// the query that once failed to compile when b built ("build column
// a.l_suppkey not in input schema") or answered for the wrong instance
// when b grouped. The filtered l_partkey cases run twice in a row, so
// later ones meet cached builds of lineitem filtered for the other
// instance: a build filtered for one alias must not serve the other
// alias's differently filtered side. bothInstancesSQL groups by, and
// sums, the same columns of both instances. The scale factor is small
// because join rows grow with its square: lineitem has ~3K rows, and
// its five suppliers make the l_suppkey join ~2M rows.
func TestSelfJoinAnswers(t *testing.T) {
	cases := []selfJoinCase{
		{on: "l_suppkey"},
		{on: "l_suppkey", groupB: true},
		{on: "l_suppkey", maxQB: 10}, // b, the smaller side, builds
		{on: "l_suppkey", maxQA: 10, groupB: true},
		{on: "l_partkey", maxQA: 10},
		{on: "l_partkey", maxQA: 10, groupB: true},
		{on: "l_partkey", maxQB: 10},
		{on: "l_partkey", maxQA: 30, maxQB: 10},
		{on: "l_partkey", maxQA: 10, maxQB: 30, groupB: true},
		{on: "l_partkey", maxQA: 30, maxQB: 10, groupB: true},
	}
	for _, strategy := range []Strategy{CostModel, NeverReuse, AlwaysReuse, Materialized} {
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			t.Run(fmt.Sprintf("%v/workers=%d", strategy, workers), func(t *testing.T) {
				db := Open(WithStrategy(strategy), WithTuning(Tuning{Parallelism: workers, MorselRows: 1024}))
				if err := db.LoadTPCH(0.0005); err != nil {
					t.Fatal(err)
				}
				for round := 0; round < 2; round++ {
					for i, c := range cases {
						if round == 1 && c.on == "l_suppkey" {
							continue // the unfiltered join is the costly one
						}
						want := c.want(t, db)
						res, err := db.Exec(c.sql())
						if err != nil {
							t.Fatalf("round %d case %d: %v\n%s", round, i, err, c.sql())
						}
						got := map[string]int64{}
						for _, row := range res.Rows {
							got[row[0].S] = row[1].I
						}
						if fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("round %d case %d: got %v, want %v\n%s", round, i, got, want, c.sql())
						}
					}
				}
				want := bothInstancesWant(db)
				for round := 0; round < 2; round++ {
					res, err := db.Exec(bothInstancesSQL)
					if err != nil {
						t.Fatalf("both instances, round %d: %v", round, err)
					}
					got := map[string][3]int64{}
					for _, row := range res.Rows {
						got[row[0].S+"|"+row[1].S] = [3]int64{row[2].I, int64(row[3].F), int64(row[4].F)}
					}
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("both instances, round %d: got %v, want %v", round, got, want)
					}
				}
				if err := checkAtRest(db); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
