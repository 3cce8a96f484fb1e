package costmodel

import (
	"fmt"
	"time"

	"hashstash/internal/hashtable"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// CalibrateOptions controls the micro-benchmark grid. The defaults
// reproduce the paper's Figure 3 axes scaled to finish quickly; pass
// larger sizes (up to 1GB) for a full reproduction.
type CalibrateOptions struct {
	Sizes  []int64 // hash table target sizes in bytes
	Widths []int   // tuple widths in bytes (multiples of 8)
	// OpsPerPoint is the number of measured operations per grid point.
	OpsPerPoint int
}

// DefaultCalibrateOptions returns a grid matching the paper's axes up to
// 32MB (1GB is feasible but slow; the hscalibrate tool exposes it).
func DefaultCalibrateOptions() CalibrateOptions {
	return CalibrateOptions{
		Sizes:       []int64{1 << 10, 32 << 10, 1 << 20, 32 << 20},
		Widths:      []int{8, 16, 64, 128, 256},
		OpsPerPoint: 1 << 16,
	}
}

// Calibrate measures insert/probe/update costs for every grid point on
// the host machine and returns the resulting calibration. It is the
// programmatic form of the paper's micro-benchmarks (Figures 3a-3c).
func Calibrate(opt CalibrateOptions) (*Calibration, error) {
	if len(opt.Sizes) == 0 || len(opt.Widths) == 0 {
		return nil, fmt.Errorf("costmodel: empty calibration grid")
	}
	if opt.OpsPerPoint <= 0 {
		opt.OpsPerPoint = 1 << 14
	}
	cal := &Calibration{Sizes: opt.Sizes, Widths: opt.Widths}
	for _, size := range opt.Sizes {
		var ins, prb, upd []float64
		for _, width := range opt.Widths {
			i, p, u := measurePoint(size, width, opt.OpsPerPoint)
			ins = append(ins, i)
			prb = append(prb, p)
			upd = append(upd, u)
		}
		cal.Insert = append(cal.Insert, ins)
		cal.Probe = append(cal.Probe, prb)
		cal.Update = append(cal.Update, upd)
	}
	cal.ScanBase, cal.ScanPerByte = measureScan()
	return cal, cal.Validate()
}

// layoutForWidth builds a layout of width/8 int64 columns, 1 key column.
func layoutForWidth(width int) hashtable.Layout {
	nCols := width / 8
	if nCols < 1 {
		nCols = 1
	}
	cols := make([]storage.ColMeta, nCols)
	for i := range cols {
		cols[i] = storage.ColMeta{
			Ref:  storage.ColRef{Table: "cal", Column: fmt.Sprintf("c%d", i)},
			Kind: types.Int64,
		}
	}
	return hashtable.Layout{Cols: cols, KeyCols: 1}
}

// entryFootprint approximates the per-entry bytes of the arena layout:
// payload + 8-byte hash + 4-byte chain link + the slot array amortized
// (4 bytes per slot at 1–2 slots per entry, ~1.44 over table sizes).
func entryFootprint(width int) int64 { return int64(width) + 8 + 4 + 6 }

// measurePoint fills a hash table to the target size, then measures the
// per-op cost of inserts (into a table of that size), probes of present
// keys, and in-place cell updates.
func measurePoint(size int64, width, ops int) (insNs, prbNs, updNs float64) {
	layout := layoutForWidth(width)
	n := int(size / entryFootprint(width))
	if n < 64 {
		n = 64
	}
	ht := hashtable.New(layout)
	row := make([]uint64, len(layout.Cols))
	for i := 0; i < n; i++ {
		row[0] = types.Mix64(uint64(i))
		for c := 1; c < len(row); c++ {
			row[c] = uint64(i + c)
		}
		ht.Insert(row)
	}

	// Inserts: fresh keys into the filled table. Measure then discard by
	// rebuilding? Appending grows the table past `size`; bound measured
	// ops to 10% of n to keep the size class stable.
	mOps := ops
	if mOps > n/10+64 {
		mOps = n/10 + 64
	}
	start := time.Now()
	for i := 0; i < mOps; i++ {
		row[0] = types.Mix64(uint64(n + i))
		ht.Insert(row)
	}
	insNs = float64(time.Since(start).Nanoseconds()) / float64(mOps)

	// Probes of keys known to exist, spread across the table.
	key := make([]uint64, 1)
	var sink int64
	start = time.Now()
	for i := 0; i < ops; i++ {
		key[0] = types.Mix64(uint64(i % n))
		it := ht.Probe(key)
		for e := it.Next(); e != -1; e = it.Next() {
			sink += int64(e)
		}
	}
	prbNs = float64(time.Since(start).Nanoseconds()) / float64(ops)

	// Updates: upsert an existing key and bump its last cell.
	cell := len(layout.Cols) - 1
	start = time.Now()
	for i := 0; i < ops; i++ {
		key[0] = types.Mix64(uint64(i % n))
		e, _ := ht.Upsert(key)
		ht.SetCell(e, cell, ht.Cell(e, cell)+1)
	}
	updNs = float64(time.Since(start).Nanoseconds()) / float64(ops)

	_ = sink
	return insNs, prbNs, updNs
}

// measureScan times copying rows from a base table into batches for two
// widths and solves for the base + per-byte model.
func measureScan() (base, perByte float64) {
	mk := func(cols int, rows int) *storage.Table {
		t := storage.NewTable("scan")
		for c := 0; c < cols; c++ {
			col := storage.NewColumn(fmt.Sprintf("c%d", c), types.Int64)
			for r := 0; r < rows; r++ {
				col.Ints = append(col.Ints, int64(r))
			}
			t.AddColumn(col)
		}
		return t
	}
	const rows = 200000
	time1 := timeScan(mk(1, rows), rows)
	time4 := timeScan(mk(4, rows), rows)
	// time1 = base + 8p ; time4 = base + 32p
	perByte = (time4 - time1) / 24
	if perByte < 0.001 {
		perByte = 0.001
	}
	base = time1 - 8*perByte
	if base < 0.5 {
		base = 0.5
	}
	return base, perByte
}

func timeScan(t *storage.Table, rows int) float64 {
	vecs := make([]*storage.Vec, len(t.Cols))
	for i, c := range t.Cols {
		vecs[i] = storage.NewVec(c.Kind)
	}
	start := time.Now()
	for r := 0; r < rows; r++ {
		if r%storage.BatchSize == 0 {
			for _, v := range vecs {
				v.Reset()
			}
		}
		for i, c := range t.Cols {
			vecs[i].AppendFrom(c, int32(r))
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(rows)
}
