// Command rdfanalytics runs the RDF-Analytics HTTP server: a SPARQL
// endpoint plus the JSON API of the faceted-analytics interaction model
// (the system of Chapter 6).
//
// Usage:
//
//	rdfanalytics [-addr :8080] [-data products|invoices|stats|file.ttl] [-scale N]
//	             [-data-dir DIR] [-wal-sync off|batch|always] [-checkpoint-interval 5m]
//
// With -data-dir the graph is durable: the first boot parses the dataset
// and checkpoints it into DIR; later boots restore from the segment + WAL
// (no re-parse) and every acknowledged update survives kill -9.
//
// The server takes no objective flags: availability and latency objectives
// are ratios a scraper reads off /metrics' rdfa_http_requests_total and
// rdfa_http_request_seconds_bucket (DESIGN.md §6.3).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/obs"
	"rdfanalytics/internal/rdf"
	"rdfanalytics/internal/server"
	"rdfanalytics/internal/sparql"
	"rdfanalytics/internal/store"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	data := flag.String("data", "products-small", "dataset: products[-small], invoices[-small], stats, or a .ttl/.nt file")
	scale := flag.Int("scale", 0, "dataset scale for generated datasets (0 = default)")
	slowQuery := flag.Duration("slow-query", 0, "log queries slower than this (e.g. 250ms; 0 disables)")
	debug := flag.Bool("debug", false, "expose net/http/pprof under /debug/pprof/")
	queryTimeout := flag.Duration("query-timeout", 30*time.Second, "per-query wall-clock deadline (0 disables)")
	maxBody := flag.Int64("max-body", server.DefaultMaxBodyBytes, "POST request body cap in bytes (negative disables)")
	sessionTTL := flag.Duration("session-ttl", 30*time.Minute, "expire interaction sessions idle longer than this (0 disables)")
	maxRows := flag.Int("max-intermediate-rows", 0, "row budget on intermediate binding sets (0 = unlimited)")
	grace := flag.Duration("shutdown-grace", 10*time.Second, "in-flight request drain window on SIGINT/SIGTERM")
	cacheSize := flag.Int64("cache-size", 64<<20, "fingerprint answer cache size in bytes (0 disables)")
	maxConcurrent := flag.Int("max-concurrent", 64, "max concurrently executing queries (0 = unbounded)")
	queueDepth := flag.Int("queue-depth", 128, "admission wait-queue depth; overflow sheds with 503 + Retry-After")
	staleWindow := flag.Duration("stale-window", 30*time.Second, "oldest cached answer of an earlier graph version a request with Cache-Control: max-stale may get (0 disables)")
	dataDir := flag.String("data-dir", "", "durable storage directory (WAL + segment files); empty runs in-memory only")
	walSync := flag.String("wal-sync", "batch", "WAL durability: off (no fsync), batch (fsync per update ack), always (fsync per record)")
	checkpointInterval := flag.Duration("checkpoint-interval", 5*time.Minute, "background WAL compaction period when -data-dir is set (0 disables)")
	traceMax := flag.Int("trace-retention", 0, "max completed traces the tail sampler retains for /api/traces (0 = default 512, negative disables)")
	traceBytes := flag.Int64("trace-retention-bytes", 0, "byte bound on retained traces (0 = default 8MiB)")
	version := flag.Bool("version", false, "print build version and exit")
	flag.Parse()
	if *version {
		fmt.Printf("rdfanalytics %s (%s)\n", obs.Version(), runtime.Version())
		os.Exit(0)
	}
	var (
		g   *rdf.Graph
		ns  string
		dst *store.Store
	)
	if *dataDir != "" {
		mode, err := store.ParseSyncMode(*walSync)
		if err != nil {
			log.Fatal(err)
		}
		dst, err = store.Open(store.Options{Dir: *dataDir, Sync: mode, CheckpointEvery: *checkpointInterval})
		if err != nil {
			log.Fatal(err)
		}
		defer dst.Close()
		if dst.Empty() {
			// First boot: parse the dataset once, then checkpoint it so
			// every later start replays from the segment instead.
			loaded, loadedNS, err := datagen.Load(*data, *scale)
			if err != nil {
				log.Fatal(err)
			}
			if err := dst.Bootstrap(loaded); err != nil {
				log.Fatal(err)
			}
			g, ns = dst.Graph(), loadedNS
			fmt.Printf("rdf-analytics: bootstrapped %s from dataset %q (wal-sync=%s)\n", *dataDir, *data, mode)
		} else {
			g, ns = dst.Graph(), datagen.GuessNamespace(dst.Graph())
			sst := dst.Stats()
			fmt.Printf("rdf-analytics: restored %s: epoch %d, %d segment triples, %d WAL records replayed in %s (wal-sync=%s)\n",
				*dataDir, sst.Epoch, sst.SegmentTriples, sst.ReplayRecords, sst.ReplayTime.Round(time.Millisecond), mode)
		}
	} else {
		var err error
		g, ns, err = datagen.Load(*data, *scale)
		if err != nil {
			log.Fatal(err)
		}
	}
	st := g.Stats()
	fmt.Printf("rdf-analytics: dataset %q loaded: %d triples, %d subjects, %d predicates, %d classes\n",
		*data, st.Triples, st.Subjects, st.Predicates, st.Classes)
	fmt.Printf("rdf-analytics: listening on %s (API at /api, SPARQL at /sparql, metrics at /metrics)\n", *addr)
	if *slowQuery > 0 {
		fmt.Printf("rdf-analytics: logging queries slower than %s\n", *slowQuery)
	}
	if *queryTimeout > 0 {
		fmt.Printf("rdf-analytics: query timeout %s\n", *queryTimeout)
	}
	if *debug {
		fmt.Println("rdf-analytics: pprof enabled at /debug/pprof/")
	}
	srv := server.NewWithConfig(g, ns, server.Config{
		SlowQuery:     *slowQuery,
		Debug:         *debug,
		QueryTimeout:  *queryTimeout,
		MaxBodyBytes:  *maxBody,
		SessionTTL:    *sessionTTL,
		Limits:        sparql.Limits{MaxIntermediateRows: *maxRows},
		CacheBytes:    *cacheSize,
		MaxConcurrent: *maxConcurrent,
		QueueDepth:    *queueDepth,
		StaleWindow:   *staleWindow,
		Store:         dst,
		TraceRetention: obs.TraceStoreConfig{
			Disabled:  *traceMax < 0,
			MaxTraces: max(*traceMax, 0),
			MaxBytes:  *traceBytes,
		},
	})
	defer srv.Close()
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := server.Run(ctx, *addr, srv, *grace); err != nil {
		log.Fatal(err)
	}
	fmt.Println("rdf-analytics: shut down cleanly")
}
