package costmodel

import "math"

// Model evaluates the paper's reuse-aware operator cost equations
// against a calibration.
type Model struct {
	Cal *Calibration
}

// NewModel returns a model over the calibration (Default() when nil).
func NewModel(cal *Calibration) *Model {
	if cal == nil {
		cal = Default()
	}
	return &Model{Cal: cal}
}

// EstimateHTBytes predicts the memory footprint of a hash table holding
// rows entries of the given tuple width, matching the arena layout
// (payload + hash + chain link + slot array amortized).
func EstimateHTBytes(rows float64, width int) float64 {
	if rows < 0 {
		rows = 0
	}
	return rows * float64(entryFootprint(width))
}

// ResizeCost models c_resize: the hash table doubles its slot array
// when the entry count reaches the slot count, relinking every entry
// present in one sequential pass. The cost is one relink of each entry
// present at every doubling crossed while growing from curRows to
// rowsAfter entries. A widening sizes its copy for the estimated delta
// up front and relinks at most once, so for curRows > 0 this is an
// upper bound.
func (m *Model) ResizeCost(curRows, rowsAfter float64) float64 {
	// BenchmarkGrow (internal/hashtable) on a 2-vCPU Xeon: 7.5–13.5
	// ns per relinked entry at 1k–256k entries, fresh slot array included.
	const nsPerLink = 9
	links := 0.0
	for slots := tableSlots(curRows); slots < rowsAfter; slots *= 2 {
		links += slots
	}
	return links * nsPerLink
}

// tableSlots is the slot count of a table holding rows entries: the
// smallest power of two ≥ rows, at least 8.
func tableSlots(rows float64) float64 {
	slots := 8.0
	for slots < rows {
		slots *= 2
	}
	return slots
}

// RHJInput gathers the estimates feeding the reuse-aware hash join cost.
type RHJInput struct {
	// BuilderRows is |Builder|: rows the build side would contribute if
	// built fresh (i.e. rows satisfying the requesting predicate).
	BuilderRows float64
	// ProberRows is |Prober|: rows probing the table.
	ProberRows float64
	// Contr is the contribution ratio: the fraction of needed build rows
	// already in the candidate table (1 for exact/subsuming reuse, 0 for
	// a fresh table).
	Contr float64
	// Overh is the overhead ratio: the fraction of the candidate's
	// entries the request does not need (post-filtered as false
	// positives during probing).
	Overh float64
	// CandRows is the candidate table's current entry count (0 fresh).
	CandRows float64
	// TupleWidth is the payload row width in bytes.
	TupleWidth int
}

// RHJ returns the estimated cost (ns) of a reuse-aware hash join:
//
//	c_RHJ = c_resize + c_build + c_probe
//	c_build = |Builder| · (1 − contr) · c_i(htSize, tWidth)
//	c_probe = |Prober| · c_l(htSize, tWidth) · (1 + κ·overh)
//
// htSize is the post-build footprint: the candidate's entries plus the
// missing rows added during the build phase. The κ·overh term charges
// the per-match false-positive filtering the paper attributes to the
// overhead ratio.
func (m *Model) RHJ(in RHJInput) float64 {
	missing := in.BuilderRows * (1 - clamp01(in.Contr))
	rowsAfter := in.CandRows + missing
	htBytes := EstimateHTBytes(rowsAfter, in.TupleWidth)
	cResize := m.ResizeCost(in.CandRows, rowsAfter)
	cBuild := missing * m.Cal.InsertCost(htBytes, in.TupleWidth)
	const postFilterWeight = 0.35
	cProbe := in.ProberRows * m.Cal.ProbeCost(htBytes, in.TupleWidth) * (1 + postFilterWeight*clamp01(in.Overh))
	return cResize + cBuild + cProbe
}

// RHAInput gathers the estimates feeding the reuse-aware aggregate cost.
type RHAInput struct {
	// InputRows is |Input|: rows flowing into the aggregation if
	// computed fresh.
	InputRows float64
	// DistinctKeys is |distinct(Input.key)|.
	DistinctKeys float64
	// Contr is the contribution ratio of the candidate table.
	Contr float64
	// Overh is the overhead ratio (unneeded groups post-filtered when
	// reading the table out).
	Overh float64
	// CandRows is the candidate's current group count (0 fresh).
	CandRows float64
	// TupleWidth is the group row width in bytes.
	TupleWidth int
}

// RHA returns the estimated cost (ns) of a reuse-aware hash aggregate:
//
//	c_RHA = c_resize + c_insert + c_update
//	c_insert = |distinct(Input.key)| · (1 − contr) · c_i
//	c_update = (|Input| − |distinct|) · (1 − contr) · c_u
//
// plus a read-out term for scanning the final groups (charged with the
// overhead ratio for post-filtering unneeded groups).
func (m *Model) RHA(in RHAInput) float64 {
	miss := 1 - clamp01(in.Contr)
	newGroups := in.DistinctKeys * miss
	rowsAfter := in.CandRows + newGroups
	htBytes := EstimateHTBytes(rowsAfter, in.TupleWidth)
	cResize := m.ResizeCost(in.CandRows, rowsAfter)
	cInsert := newGroups * m.Cal.InsertCost(htBytes, in.TupleWidth)
	updates := (in.InputRows - in.DistinctKeys)
	if updates < 0 {
		updates = 0
	}
	cUpdate := updates * miss * m.Cal.UpdateCost(htBytes, in.TupleWidth)
	const readoutWeight = 0.5
	cReadout := rowsAfter * readoutWeight * m.Cal.ProbeCost(htBytes, in.TupleWidth) * (1 + clamp01(in.Overh))
	return cResize + cInsert + cUpdate + cReadout
}

// ScanCost estimates scanning rows of emitted width bytes from a base
// table (index-driven scans pass the post-filter row count).
func (m *Model) ScanCost(rows float64, width int) float64 {
	return m.Cal.ScanCost(rows, width)
}

// IndexBuildCost estimates bulk-loading a secondary index over rows
// base rows: a comparison sort of the permutation (rows·log2 rows)
// plus a linear gather of the keys into leaf order.
func (m *Model) IndexBuildCost(rows float64) float64 {
	if rows < 2 {
		return 0
	}
	return rows*math.Log2(rows)*m.Cal.IndexBuild() + rows*2
}

// IndexRangeCost estimates one index-driven range scan: two log-height
// descents resolve the leaf run, then every matching row pays a leaf
// walk plus a random gather of width emitted bytes through the
// permutation. Compare against ScanCost(totalRows, width): the index
// reads only the matches but pays cache-hostile gathers for them, so
// the model crosses over to the sequential scan as selectivity grows.
func (m *Model) IndexRangeCost(totalRows, matchRows float64, width int) float64 {
	if matchRows < 0 {
		matchRows = 0
	}
	height := 1.0
	for n := totalRows; n > 64; n /= 64 {
		height++
	}
	gBase, gByte := m.Cal.IndexGather()
	perRow := m.Cal.IndexLeaf() + gBase + gByte*float64(width)
	return 2*height*m.Cal.IndexDescent() + matchRows*perRow
}

// ReviveCost estimates rebuilding a hash table from its cold-tier
// spill: one insert per row into a table sized for the spill up front,
// so nothing relinks. Rows stream from
// contiguous spill arrays, so — unlike a fresh build — there is no
// input plan to run; comparing ReviveCost against the fresh build's
// input cost + inserts is the revive-vs-rebuild decision.
func (m *Model) ReviveCost(rows float64, width int) float64 {
	if rows < 0 {
		rows = 0
	}
	htBytes := EstimateHTBytes(rows, width)
	return rows * m.Cal.InsertCost(htBytes, width)
}

// IndexReviveCost estimates re-materializing a spilled secondary index:
// the permutation survives demotion, so revival is IndexBuildCost minus
// its n·log n sort — the linear key gather and level construction.
func (m *Model) IndexReviveCost(rows float64) float64 {
	if rows < 0 {
		rows = 0
	}
	return rows * 2.5
}

// Sharded execution costs. Per-shard operator costs need no dedicated
// scaling terms: each shard's optimizer estimates against that shard's
// own catalog statistics (≈ rows/N for a hash-partitioned table), so
// every equation above scales down automatically. What the router has
// to price itself is the work between shards: fanning a plan out and
// merging the gathered partials.

// GatherCost estimates the router's merge of per-shard results: every
// gathered row pays one hash-map fold (aggregates) or heap step
// (ordered merge) — both land in the same few-tens-of-ns regime — plus
// a constant fan-out/collection overhead per shard leg.
func (m *Model) GatherCost(rows float64, shards int) float64 {
	if rows < 0 {
		rows = 0
	}
	const nsPerRow = 60
	const nsPerShard = 20000 // plan fan-out + goroutine + result splice
	return rows*nsPerRow + float64(shards)*nsPerShard
}

// RouteSingleShard is the routing crossover: should a query whose
// partition-key constraints pin every matching row to one shard run on
// that shard alone, or on the whole tables anyway? The whole-table
// alternative scans the target fragment's rows and every other
// fragment's, which cannot match — so routing wins whenever that
// overhead is positive. (The GatherCost term prices a per-shard fan-out
// no route pays any more; it only adds to the overhead.) The comparison
// lives in the model (rather than being hard-coded in the router) so a
// future placement-aware calibration — NUMA distance, warm per-shard
// caches — can tip it. fragmentRows is the routed shard's estimated
// fragment size.
func (m *Model) RouteSingleShard(fragmentRows float64, shards int) bool {
	if shards <= 1 {
		return true
	}
	wasted := m.ScanCost(fragmentRows*float64(shards-1), 16) + m.GatherCost(0, shards)
	return wasted > 0
}

func clamp01(v float64) float64 {
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
