package hashtable

import (
	"fmt"

	"hashstash/internal/types"
)

// Merge support for parallel builds: a morsel-driven pipeline gives each
// worker a private partial table (its own arenas and string heap) and
// merges the partials into one immutable table at the pipeline breaker.
// Probes never see a table under construction, so the hot probe path
// stays lock-free.

// checkMergeLayouts panics unless src's layout is cell-compatible with
// t's (same column count, kinds and key width). Column refs may differ
// (worker partials clone the target layout, so in practice they match).
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
}

// reencodeRow copies entry e of src into row, translating string cells
// from src's heap into t's. It reports whether any key cell changed
// (forcing a rehash).
func (t *Table) reencodeRow(src *Table, e int32, row []uint64) bool {
	keyChanged := false
	for i := 0; i < src.nCols; i++ {
		bits := src.Cell(e, i)
		if src.layout.Cols[i].Kind == types.String {
			old := bits
			bits = t.strs.Intern(src.strs.At(bits))
			if i < t.layout.KeyCols && bits != old {
				keyChanged = true
			}
		}
		row[i] = bits
	}
	return keyChanged
}

// MergeFrom inserts every entry of the srcs into t (duplicate keys
// chain, as in Insert) — the merge step of a parallel join build. t is
// sized for the merged count first, so the merge relinks at most once.
// String cells are re-interned into t's heap; hashes of string-free
// keys are reused from the srcs so the merge does not re-hash what it
// does not have to.
func (t *Table) MergeFrom(srcs ...*Table) {
	t.mustMutate("MergeFrom")
	n := t.Len()
	for _, src := range srcs {
		t.checkMergeLayouts(src)
		n += src.Len()
	}
	t.reserve(n)
	row := make([]uint64, t.nCols)
	for _, src := range srcs {
		for e := range int32(src.Len()) {
			changed := t.reencodeRow(src, e, row)
			h := src.hashes[e]
			if changed {
				h = HashKey(row[:t.layout.KeyCols])
			}
			t.insertHashed(h, row)
		}
	}
}

// MergeGroupsFrom upserts every entry of src into t — the merge step
// of a parallel aggregation. New keys copy their cells; existing
// keys fold each non-key cell through fold(col, dstBits, srcBits),
// which the caller derives from the aggregate functions (SUM adds,
// COUNT adds, MIN/MAX compare). String cells are re-interned into t's
// heap. It returns how many new groups the merge created in t.
func (t *Table) MergeGroupsFrom(src *Table, fold func(col int, dst, src uint64) uint64) (created int64) {
	t.checkMergeLayouts(src)
	row := make([]uint64, t.nCols)
	nKeys := t.layout.KeyCols
	for e := range int32(src.Len()) {
		t.reencodeRow(src, e, row)
		dst, found := t.Upsert(row[:nKeys])
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
