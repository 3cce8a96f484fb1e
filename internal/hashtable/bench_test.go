package hashtable

import (
	"fmt"
	"testing"

	"hashstash/internal/storage"
	"hashstash/internal/types"
)

func benchLayout() Layout {
	return Layout{
		Cols: []storage.ColMeta{
			{Ref: storage.ColRef{Table: "t", Column: "k"}, Kind: types.Int64},
			{Ref: storage.ColRef{Table: "t", Column: "v"}, Kind: types.Int64},
		},
		KeyCols: 1,
	}
}

// BenchmarkWidenedProbe measures the batched probe path over a freshly
// built table and over the same groups after six generations of copy
// widening with aggregate churn (each generation folds a rotating
// quarter of the groups). Copy widening leaves no trace in the table's
// layout, so both report the same chain/probe (mean probe chain length
// from the table's counters); the benchmark fails when it exceeds
// maxChainPerProbe, which the keys fix exactly. The loop is
// steady-state allocation-free (gated exactly by the benchjson CI
// compare); ns/op is advisory on shared runners.
func BenchmarkWidenedProbe(b *testing.B) {
	const keys = 4096
	const batch = storage.BatchSize
	buildRoot := func() *Table {
		t := New(benchLayout())
		for k := uint64(0); k < keys; k++ {
			e, _ := t.Upsert([]uint64{k})
			t.SetCell(e, 1, k)
		}
		return t
	}
	widened := buildRoot()
	for gen := 0; gen < 6; gen++ {
		w := widened.Widen(0)
		for i := 0; i < keys/4; i++ {
			e, _ := w.Upsert([]uint64{uint64((gen*keys/4 + i) % keys)})
			w.SetCell(e, 1, w.Cell(e, 1)+1)
		}
		widened = w
	}

	variants := []struct {
		name string
		tbl  *Table
	}{
		{"fresh", buildRoot().Freeze()},
		{"widened", widened.Freeze()},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			probe := make([]uint64, batch)
			enc := [][]uint64{probe}
			hashes := make([]uint64, batch)
			cur := make([]int32, batch)
			rows := make([]int32, 0, batch)
			ents := make([]int32, 0, batch)
			start := v.tbl.ProbeStats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				base := uint64(i*batch) % keys
				for j := range probe {
					probe[j] = (base + uint64(j)) % keys
				}
				HashColumns(hashes, enc)
				rows, ents = v.tbl.ProbeHashedColumn(cur, hashes, enc, rows[:0], ents[:0])
				if len(rows) != batch {
					b.Fatalf("batch %d: %d matches, want %d", i, len(rows), batch)
				}
			}
			b.StopTimer()
			ps := v.tbl.ProbeStats()
			chain := float64(ps.ChainNodes-start.ChainNodes) / float64(ps.Probes-start.Probes)
			if chain > maxChainPerProbe {
				b.Fatalf("%.3f chain nodes per probe, want ≤ %.1f", chain, maxChainPerProbe)
			}
			b.ReportMetric(chain, "chain/probe")
		})
	}
}

// BenchmarkWiden measures one partial-reuse widening end to end at the
// table level: copy a frozen join table of n entries with headroom for
// a 5 % delta, insert the delta, and freeze the copy for publication.
// The copy's arenas are exact-size plus headroom, so allocs/op is fixed
// by the table's shape (gated exactly by the benchjson CI compare) and
// bytes/op stays near one copy of the table.
func BenchmarkWiden(b *testing.B) {
	for _, n := range []int{1_000, 30_000, 300_000} {
		b.Run(fmt.Sprintf("entries=%dk", n/1000), func(b *testing.B) {
			src := New(benchLayout())
			for k := range uint64(n) {
				src.Insert([]uint64{k, k})
			}
			src.Freeze()
			delta := n / 20
			row := make([]uint64, 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := src.Widen(delta)
				for k := range uint64(delta) {
					row[0], row[1] = uint64(n)+k, k
					w.Insert(row)
				}
				w.Freeze()
			}
		})
	}
}

// BenchmarkGrow measures one doubling of a full table (load 1) of n
// entries: a fresh slot array twice the size, then one sequential pass
// relinking every entry. ns/link is the cost model's per-entry price of
// a resize (costmodel.ResizeCost).
func BenchmarkGrow(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 15, 1 << 18} {
		b.Run(fmt.Sprintf("entries=%dk", n>>10), func(b *testing.B) {
			t := New(benchLayout())
			for k := range uint64(n) {
				t.Insert([]uint64{k, k})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.relink(2 * n)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/link")
		})
	}
}
