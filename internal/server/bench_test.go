package server

import (
	"context"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"hashstash"
	"hashstash/internal/types"
	"hashstash/internal/workload"
)

// benchServe drives the serving front-end at saturation (open-loop
// arrival order from the workload generator, replayed at max rate by
// a fixed client pool) and reports per-query latency. The batching-on
// vs batching-off pair is the serving layer's headline comparison:
// same engine, same wire path, shared plans on or off.
func benchServe(b *testing.B, disableBatching bool) {
	// A one-byte cache budget turns hash-table reuse off: with reuse in
	// play the repeated solo texts execute almost for free and the pair
	// measures the caching subsystem (which has its own benchmarks),
	// not the serving layer's share-vs-solo tradeoff.
	db := hashstash.Open(hashstash.WithTuning(hashstash.Tuning{CacheBudget: 1}))
	if err := db.LoadTPCH(0.002); err != nil {
		b.Fatal(err)
	}
	srv := New(db, Config{
		MaxBatch:        32,
		MaxQueue:        1024,
		DefaultTimeout:  60 * time.Second,
		DisableBatching: disableBatching,
	})
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
	st := srv.Stats()
	b.Logf("%d queries: %d batched, %d plans executed", st.TotalQueries, st.BatchedQueries, st.PlansExecuted)
}

func BenchmarkServeSimilarBatched(b *testing.B) { benchServe(b, false) }
func BenchmarkServeSimilarSolo(b *testing.B)    { benchServe(b, true) }

// BenchmarkEncodeResult encodes one export-sized answer — 2,333 rows of
// (int64, float64), the size of a 1 % lineitem range scan at SF 0.05 —
// into a pooled response buffer, as POST /query does. Once the pool
// holds a grown buffer, an encode allocates nothing.
func BenchmarkEncodeResult(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	res := &hashstash.Result{Columns: []string{"l.l_orderkey", "l.l_extendedprice"}}
	for i := 0; i < 2333; i++ {
		res.Rows = append(res.Rows, []hashstash.Value{
			types.NewInt(rng.Int64N(300_000)),
			types.NewFloat(float64(rng.IntN(10_000_000)) / 100),
		})
	}
	info := QueryInfo{Mode: "bypass-shape"}
	b.ReportAllocs()
	for b.Loop() {
		buf := getBuf()
		*buf = appendResult(*buf, res, info, false)
		putBuf(buf)
	}
}
