package server

import (
	"context"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"hashstash"
	"hashstash/internal/exec"
	"hashstash/internal/storage"
	"hashstash/internal/types"
	"hashstash/internal/workload"
)

// BenchmarkServeSimilarSolo drives the serving front-end at saturation
// (open-loop arrival order from the workload generator, replayed at max
// rate by a fixed client pool) and reports per-query latency: the
// similar mix, every query run solo on its caller's goroutine.
func BenchmarkServeSimilarSolo(b *testing.B) {
	// A one-byte cache budget turns hash-table reuse off: with reuse in
	// play the repeated texts execute almost for free and the benchmark
	// measures the caching subsystem (which has its own benchmarks), not
	// the serving layer.
	db := hashstash.Open(hashstash.WithTuning(hashstash.Tuning{CacheBudget: 1}))
	if err := db.LoadTPCH(0.002); err != nil {
		b.Fatal(err)
	}
	srv := New(db, Config{DefaultTimeout: 60 * time.Second})
	defer srv.Close()

	arrivals := workload.GenerateOpenLoop(b.N, 0, workload.MixSimilar, []string{"a", "b"}, 11)
	const clients = 8
	work := make(chan workload.Arrival, len(arrivals))
	for _, a := range arrivals {
		work <- a
	}
	close(work)

	b.ResetTimer()
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range work {
				if _, _, err := srv.Execute(context.Background(), a.Tenant, a.SQL); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	select {
	case err := <-errc:
		b.Fatal(err)
	default:
	}
}

// exportRows is the row count of an export-sized answer: a 1 %
// lineitem range scan at SF 0.05.
const exportRows = 2333

// exportColumns returns an export-sized (l_orderkey, l_extendedprice)
// answer. Prices are cents (v/100) or, with fullPrecision, drawn the
// way the generator draws l_extendedprice (quantity × a uniform unit
// price), whose shortest round-trip forms run to 16–17 digits.
func exportColumns(fullPrecision bool) (keys, prices *storage.Column) {
	rng := rand.New(rand.NewPCG(1, 2))
	keys = storage.NewColumn("l_orderkey", types.Int64)
	prices = storage.NewColumn("l_extendedprice", types.Float64)
	for i := 0; i < exportRows; i++ {
		keys.Ints = append(keys.Ints, rng.Int64N(300_000))
		price := float64(rng.IntN(10_000_000)) / 100
		if fullPrecision {
			price = float64(1+rng.IntN(50)) * (900 + rng.Float64()*1100)
		}
		prices.Floats = append(prices.Floats, price)
	}
	return keys, prices
}

// benchEncode encodes res into a pooled response buffer, as POST /query
// does. Once the pool holds a grown buffer, an encode allocates nothing.
func benchEncode(b *testing.B, res *hashstash.Result) {
	info := QueryInfo{Mode: "solo"}
	b.ReportAllocs()
	for b.Loop() {
		buf := getBuf()
		*buf = appendResult(*buf, res, info, false)
		putBuf(buf)
	}
}

func exportResult(fullPrecision bool) *hashstash.Result {
	keys, prices := exportColumns(fullPrecision)
	return &hashstash.Result{
		Columns: []string{"l.l_orderkey", "l.l_extendedprice"},
		Vecs: []storage.Vec{
			{Kind: types.Int64, Ints: keys.Ints},
			{Kind: types.Float64, Floats: prices.Floats},
		},
	}
}

// BenchmarkEncodeResult encodes one export-sized answer with cent
// prices from its columns.
func BenchmarkEncodeResult(b *testing.B) { benchEncode(b, exportResult(false)) }

// BenchmarkEncodeResultFullPrecision is BenchmarkEncodeResult with
// full-precision prices, the form export's answers actually carry, so
// float formatting costs what it costs on the wire.
func BenchmarkEncodeResultFullPrecision(b *testing.B) { benchEncode(b, exportResult(true)) }

// BenchmarkCollectEncode is the served answer's whole path from the
// last pipeline breaker: an export-sized scan's batches (row ids over
// deferred base columns, as late materialization hands them over) are
// collected, the collector finishes, and the columns are encoded.
func BenchmarkCollectEncode(b *testing.B) {
	keys, prices := exportColumns(true)
	schema := storage.Schema{
		{Ref: storage.ColRef{Table: "l", Column: "l_orderkey"}, Kind: types.Int64},
		{Ref: storage.ColRef{Table: "l", Column: "l_extendedprice"}, Kind: types.Float64},
	}
	var batches []*storage.Batch
	for lo := 0; lo < exportRows; lo += storage.BatchSize {
		batch := storage.NewBatch(schema)
		batch.AppendIDRange(int32(lo), int32(min(lo+storage.BatchSize, exportRows)))
		batch.Defer(0, keys)
		batch.Defer(1, prices)
		batches = append(batches, batch)
	}
	columns := []string{"l.l_orderkey", "l.l_extendedprice"}
	info := QueryInfo{Mode: "solo"}
	b.ReportAllocs()
	for b.Loop() {
		collect := exec.NewCollect(schema, nil, exec.Order{})
		for _, batch := range batches {
			collect.Consume(batch)
		}
		collect.Finish()
		res := &hashstash.Result{Columns: columns, Vecs: collect.Cols}
		buf := getBuf()
		*buf = appendResult(*buf, res, info, false)
		putBuf(buf)
	}
}

// BenchmarkAppendFloat formats one full-precision export price per op,
// cycling through an export-sized answer's prices: the number kernel
// alone, which allocates nothing.
func BenchmarkAppendFloat(b *testing.B) {
	_, prices := exportColumns(true)
	dst := make([]byte, 0, 32)
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		dst = appendFloat(dst[:0], prices.Floats[i])
		if i++; i == len(prices.Floats) {
			i = 0
		}
	}
}
