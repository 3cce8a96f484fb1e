// Command hashstashd is the HashStash server: it loads a TPC-H
// instance and serves SQL over HTTP/JSON and a keep-alive line
// protocol. Every query runs at once on its connection's goroutine
// (see internal/server).
//
//	$ hashstashd -sf 0.01 -listen :8080 -line-listen :8081
//	$ curl -s localhost:8080/query -d '{"sql":"SELECT ... "}'
//	$ curl -s localhost:8080/stats
//
// Flags:
//
//	-listen        HTTP address (default :8080)
//	-line-listen   line-protocol address (empty = disabled)
//	-timeout       default per-query timeout (default 10s)
//	-mem-soft      soft memory watermark in bytes (0 = off): shed cache,
//	               veto index builds
//	-mem-hard      hard memory watermark in bytes (0 = off): refuse
//	               admission with 429 + Retry-After
//	-drain         graceful-shutdown drain bound (default 10s)
//	-sf, -cache, -parallel  engine knobs as in cmd/hashstash
//	-shards        deprecated and ignored: the engine has no shards
//
// On SIGINT/SIGTERM the server drains gracefully: listeners close, new
// admissions are refused with a retriable error, and in-flight queries
// finish (bounded by -drain). A second signal exits immediately.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"hashstash"
	"hashstash/internal/server"
)

func main() {
	var (
		listen     = flag.String("listen", ":8080", "HTTP listen address")
		lineListen = flag.String("line-listen", "", "line-protocol listen address (empty = disabled)")
		timeout    = flag.Duration("timeout", 10*time.Second, "default per-query timeout")
		memSoft    = flag.Int64("mem-soft", 0, "soft memory watermark in bytes (0 = off)")
		memHard    = flag.Int64("mem-hard", 0, "hard memory watermark in bytes (0 = off)")
		drain      = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain bound")
		sf         = flag.Float64("sf", 0.01, "TPC-H scale factor")
		budget     = flag.Int64("cache", 0, "hash table cache budget in bytes (0 = unlimited)")
		parallel   = flag.Int("parallel", 0, "execution worker-pool size (0 = all CPUs, 1 = serial)")
	)
	// Deprecated: -shards is parsed and ignored. It stays only until the
	// benchmark stops passing it.
	flag.Int("shards", 1, "deprecated and ignored")
	flag.Parse()

	db := hashstash.Open(
		hashstash.WithTuning(hashstash.Tuning{
			CacheBudget:     *budget,
			Parallelism:     *parallel,
			SoftMemoryLimit: *memSoft,
			HardMemoryLimit: *memHard,
		}))
	fmt.Printf("loading TPC-H SF=%.3f... ", *sf)
	start := time.Now()
	if err := db.LoadTPCH(*sf); err != nil {
		fmt.Fprintln(os.Stderr, "load:", err)
		os.Exit(1)
	}
	// The load allocates each column once at its final size, so it
	// leaves next to no garbage. The collection stays so that the
	// serving heap's first goal is set from the loaded tables: without
	// it, that goal is twice whatever the load's last cycle happened to
	// find live, and the server's peak memory depends on when that
	// cycle ran.
	runtime.GC()
	fmt.Printf("done in %v\n", time.Since(start).Round(time.Millisecond))

	srv := server.New(db, server.Config{
		DefaultTimeout: *timeout,
		DrainTimeout:   *drain,
	})

	httpLn, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "listen:", err)
		os.Exit(1)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() {
		if serveErr := httpSrv.Serve(httpLn); serveErr != nil && serveErr != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "http:", serveErr)
		}
	}()
	fmt.Printf("http listening on %s\n", httpLn.Addr())

	var lineLn net.Listener
	if *lineListen != "" {
		lineLn, err = net.Listen("tcp", *lineListen)
		if err != nil {
			fmt.Fprintln(os.Stderr, "line listen:", err)
			os.Exit(1)
		}
		go func() {
			if serveErr := srv.ServeLine(lineLn); serveErr != nil {
				fmt.Fprintln(os.Stderr, "line:", serveErr)
			}
		}()
		fmt.Printf("line protocol listening on %s\n", lineLn.Addr())
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	<-sigc
	fmt.Println("\ndraining")

	// Second signal: give up on the drain and exit hard.
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "second signal: exiting immediately")
		os.Exit(1)
	}()

	// Stop accepting first, then drain in-flight work. httpSrv.Shutdown
	// waits for active handlers (each holding an Execute call); the
	// server's own Shutdown then drains line-protocol queries in flight
	// and closes any idle line-protocol connections.
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if lineLn != nil {
		_ = lineLn.Close()
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "http drain:", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "drain:", err)
	}
	st := srv.Stats()
	fmt.Printf("served %d queries: %d executed, %d refused overloaded, %d refused draining\n",
		st.TotalQueries, st.PlansExecuted, st.Overloads, st.ShutdownRejects)
}
