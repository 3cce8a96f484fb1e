package storage

import (
	"testing"

	"hashstash/internal/types"
)

// TestPartitionerMatchesShardOf: the vectorized kernel must agree with
// the scalar ShardOf on every row and kind — the router's equality
// resolution and the bulk split must never disagree.
func TestPartitionerMatchesShardOf(t *testing.T) {
	const n, shards = 10_000, 4
	cols := map[string]*Column{
		"int": NewColumn("int", types.Int64),
		"flt": NewColumn("flt", types.Float64),
		"str": NewColumn("str", types.String),
		"dat": NewColumn("dat", types.Date),
	}
	for i := 0; i < n; i++ {
		cols["int"].Append(types.NewInt(int64(i * 37)))
		cols["flt"].Append(types.NewFloat(float64(i) * 0.25))
		cols["str"].Append(types.NewString(string(rune('a'+i%26)) + "key"))
		cols["dat"].Append(types.NewDate(int64(9000 + i)))
	}
	p := NewPartitioner(shards)
	for name, col := range cols {
		p.Partition(col, -1)
		dest := p.Dest()
		for i := 0; i < n; i++ {
			want := ShardOf(col.Value(i), shards)
			if int(dest[i]) != want {
				t.Fatalf("%s row %d: kernel says shard %d, ShardOf says %d", name, i, dest[i], want)
			}
		}
		// Rows(s) must be a stable (ascending) permutation covering
		// every row exactly once.
		seen := make([]bool, n)
		total := 0
		for s := 0; s < shards; s++ {
			rows := p.Rows(s)
			for j, r := range rows {
				if j > 0 && rows[j-1] >= r {
					t.Fatalf("%s shard %d: rows not ascending at %d", name, s, j)
				}
				if seen[r] {
					t.Fatalf("%s: row %d assigned twice", name, r)
				}
				seen[r] = true
				total++
			}
		}
		if total != n {
			t.Fatalf("%s: %d rows scattered, want %d", name, total, n)
		}
	}
}

// TestPartitionerZeroAlloc: steady-state partitioning, after the first
// warm-up call, allocates nothing.
func TestPartitionerZeroAlloc(t *testing.T) {
	col := NewColumn("k", types.Int64)
	for i := 0; i < 4096; i++ {
		col.Append(types.NewInt(int64(i) * 7919))
	}
	p := NewPartitioner(4)
	p.Partition(col, -1) // warm up scratch
	if allocs := testing.AllocsPerRun(20, func() { p.Partition(col, -1) }); allocs != 0 {
		t.Errorf("Partition: %v allocs/run, want 0", allocs)
	}
}

// TestPartitionTable: fragments preserve every row exactly once, in
// original order, and route by the key hash. The whole table is the
// fragments concatenated in shard order: fragment s is its row range
// and shares its storage, and an append to a fragment copies it rather
// than write into the next fragment's rows.
func TestPartitionTable(t *testing.T) {
	tab := NewTable("t")
	tab.AddColumn(NewColumn("k", types.Int64))
	tab.AddColumn(NewColumn("v", types.String))
	const n = 1000
	for i := 0; i < n; i++ {
		tab.AppendRow(types.NewInt(int64(i)), types.NewString(string(rune('A'+i%26))))
	}
	whole, frags, err := PartitionTable(tab, "k", 4)
	if err != nil {
		t.Fatal(err)
	}
	if whole.Name != "t" || whole.NumRows() != n {
		t.Fatalf("whole table %q holds %d rows, want %d", whole.Name, whole.NumRows(), n)
	}
	seen := make([]bool, n)
	lo := 0
	for s, f := range frags {
		if f.Name != "t" {
			t.Fatalf("fragment %d named %q", s, f.Name)
		}
		hi := lo + f.NumRows()
		kc, vc := f.Column("k"), f.Column("v")
		if f.NumRows() > 0 && (&kc.Ints[0] != &whole.Column("k").Ints[lo] || &vc.Strs[0] != &whole.Column("v").Strs[lo]) {
			t.Fatalf("fragment %d does not share rows [%d, %d) of the whole table", s, lo, hi)
		}
		if cap(kc.Ints) != f.NumRows() || cap(vc.Strs) != f.NumRows() {
			t.Fatalf("fragment %d: capacity not capped at its %d rows", s, f.NumRows())
		}
		prev := int64(-1)
		for i := 0; i < f.NumRows(); i++ {
			k := kc.Value(i).I
			if ShardOf(types.NewInt(k), 4) != s {
				t.Fatalf("key %d landed on shard %d", k, s)
			}
			if k <= prev {
				t.Fatalf("shard %d: rows out of original order (%d after %d)", s, k, prev)
			}
			prev = k
			if vc.Value(i).S != string(rune('A'+k%26)) {
				t.Fatalf("key %d: payload column desynced", k)
			}
			if seen[k] {
				t.Fatalf("key %d appears twice", k)
			}
			seen[k] = true
		}
		lo = hi
	}
	if lo != n {
		t.Fatalf("fragments hold %d rows, want %d", lo, n)
	}

	next := whole.Column("k").Value(frags[0].NumRows())
	frags[0].AppendRow(types.NewInt(-1), types.NewString("x"))
	if got := whole.Column("k").Value(frags[0].NumRows() - 1); got.Compare(next) != 0 {
		t.Fatalf("an append to fragment 0 overwrote fragment 1's first key %v with %v", next, got)
	}

	if _, _, err := PartitionTable(tab, "nope", 4); err == nil {
		t.Fatal("partitioning by a missing column must fail")
	}
}
