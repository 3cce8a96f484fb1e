package storage

// DefaultMorselRows is the default morsel granularity: the number of
// rows one scan unit covers in morsel-driven parallel execution. 64K
// rows keeps per-morsel scheduling overhead negligible while yielding
// enough independent units to saturate a worker pool on TPC-H-sized
// tables (morsel-driven parallelism after Leis et al.).
const DefaultMorselRows = 64 * 1024

// Morsel is a half-open row range [Start, End) of a table or of any
// other row-addressable container (index permutation slice, hash-table
// entry arena). Morsels partition a source into independent scan units
// that workers claim one at a time.
type Morsel struct {
	Start, End int32
}

// Len reports the number of rows the morsel covers.
func (m Morsel) Len() int { return int(m.End - m.Start) }

// MorselRange splits [0, n) into morsels of at most size rows. A
// non-positive size uses DefaultMorselRows; n <= 0 yields nil.
func MorselRange(n, size int) []Morsel {
	if size <= 0 {
		size = DefaultMorselRows
	}
	if n <= 0 {
		return nil
	}
	out := make([]Morsel, 0, (n+size-1)/size)
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		out = append(out, Morsel{Start: int32(lo), End: int32(hi)})
	}
	return out
}

// Morsels partitions the table's rows into scan morsels of at most size
// rows (DefaultMorselRows when size <= 0).
func (t *Table) Morsels(size int) []Morsel {
	return MorselRange(t.NumRows(), size)
}

// MinMorselRows floors the balanced morsel granularity: below ~1K rows
// per-morsel scheduling overhead starts to show against the scan work
// itself.
const MinMorselRows = 1024

// morselsPerWorker is the target number of morsels per worker when
// balancing: enough that the workers pulling from the shared queue
// finish a pipeline at about the same time, few enough that per-morsel
// overhead stays negligible.
const morselsPerWorker = 4

// MinSpreadRows is the spread floor: under the default granularity a
// source of fewer positions is not split (one morsel per run), so a
// one-run source's pipeline runs as one task on the calling goroutine,
// straight into its real sink, and the scheduler starts no pool for it. Below the floor the pool's
// start-up, the per-worker partial sinks and their merge cost more than
// a second core saves; BenchmarkSpreadFloor (internal/exec) is the
// sweep that places it.
const MinSpreadRows = 16 * 1024

// BalancedMorselRows is the load-balancing partitioning hint: the
// configured morsel size when [0, n) already yields enough morsels to
// keep a pool of workers busy, otherwise a finer granularity targeting
// morselsPerWorker morsels per worker. The automatic shrink floors at
// MinMorselRows; an explicitly smaller configured size is respected
// (tests and benchmarks force fine morsels that way). Sources pass
// their row counts through this before chunking so short scans — a
// selective residual box, a mid-sized index run — still split into
// several morsels per worker instead of one morsel per core. Under the
// default granularity (size <= 0) a source shorter than MinSpreadRows
// is not split at all; an explicit size keeps splitting it.
func BalancedMorselRows(n, size, workers int) int {
	if size <= 0 {
		if n < MinSpreadRows {
			return DefaultMorselRows
		}
		size = DefaultMorselRows
	}
	if workers <= 1 || n <= 0 {
		return size
	}
	if target := n / (morselsPerWorker * workers); target < size {
		if target < MinMorselRows {
			target = MinMorselRows
		}
		if target < size {
			size = target
		}
	}
	return size
}
