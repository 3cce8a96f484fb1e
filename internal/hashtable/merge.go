package hashtable

import (
	"fmt"
)

// Merge support for parallel builds: a morsel-driven pipeline gives each
// worker a private partial table (its own arenas) and merges the
// partials into one immutable table at the pipeline breaker. Probes
// never see a table under construction, so the hot probe path stays
// lock-free. Every partial codes its strings against the same
// dictionary, so a merge copies cells and hashes as they are.

// checkMergeLayouts panics unless src's layout is cell-compatible with
// t's (same column count, kinds, key width and dictionary). Column refs
// may differ (worker partials clone the target layout, so in practice
// they match).
func (t *Table) checkMergeLayouts(src *Table) {
	if len(src.layout.Cols) != t.nCols || src.layout.KeyCols != t.layout.KeyCols {
		panic(fmt.Sprintf("hashtable: merge layout mismatch: %d/%d cols vs %d/%d keys",
			len(src.layout.Cols), src.layout.KeyCols, t.nCols, t.layout.KeyCols))
	}
	for i, m := range src.layout.Cols {
		if m.Kind != t.layout.Cols[i].Kind {
			panic(fmt.Sprintf("hashtable: merge column %d kind %v != %v", i, m.Kind, t.layout.Cols[i].Kind))
		}
	}
	if src.layout.Dict != t.layout.Dict {
		panic("hashtable: merge of tables coded against different dictionaries")
	}
}

// MergeFrom inserts every entry of the srcs into t (duplicate keys
// chain, as in Insert) — the merge step of a parallel join build. t is
// sized for the merged count first, so the merge relinks at most once,
// and each entry keeps the hash its source computed.
func (t *Table) MergeFrom(srcs ...*Table) {
	t.mustMutate("MergeFrom")
	n := t.Len()
	for _, src := range srcs {
		t.checkMergeLayouts(src)
		n += src.Len()
	}
	t.reserve(n)
	for _, src := range srcs {
		for e := range int32(src.Len()) {
			t.insertHashed(src.hashes[e], src.row(e))
		}
	}
}

// MergeGroupsFrom upserts every entry of src into t — the merge step
// of a parallel aggregation. New keys copy their cells; existing
// keys fold each non-key cell through fold(col, dstBits, srcBits),
// which the caller derives from the aggregate functions (SUM adds,
// COUNT adds, MIN/MAX compare). It returns how many new groups the
// merge created in t.
func (t *Table) MergeGroupsFrom(src *Table, fold func(col int, dst, src uint64) uint64) (created int64) {
	t.checkMergeLayouts(src)
	nKeys := t.layout.KeyCols
	for e := range int32(src.Len()) {
		row := src.row(e)
		dst, found := t.UpsertHashed(src.hashes[e], row[:nKeys])
		if !found {
			created++
			for c := nKeys; c < t.nCols; c++ {
				t.SetCell(dst, c, row[c])
			}
			continue
		}
		for c := nKeys; c < t.nCols; c++ {
			t.SetCell(dst, c, fold(c, t.Cell(dst, c), row[c]))
		}
	}
	return created
}
