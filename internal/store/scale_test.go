package store

import (
	"os"
	"runtime"
	"testing"
	"time"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/obs"
	"rdfanalytics/internal/rdf"
)

// totalAlloc is the bytes the process has allocated so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// BenchmarkStoreScale bootstraps a durable store with the products graph at
// 200k, 1M and 2M triples and reports what one checkpoint after a single
// write and one Open of the resulting data dir cost: bytes allocated, wall
// time, and for the checkpoint the time its snapshot_encode span held the
// graph read lock. Part of make bench-scale; outside the standing benchmark,
// so compare it across commits as alternating runs.
func BenchmarkStoreScale(b *testing.B) {
	for _, sc := range []struct {
		name    string
		laptops int
	}{{"200k", 22400}, {"1M", 113000}, {"2M", 226000}} {
		b.Run(sc.name, func(b *testing.B) {
			g := datagen.Products(datagen.ProductsConfig{Laptops: sc.laptops, Companies: 16, Seed: 1})
			rdf.Materialize(g)
			dir := b.TempDir()
			s, err := Open(Options{Dir: dir, Sync: SyncBatch})
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Bootstrap(g); err != nil {
				b.Fatal(err)
			}
			var cpBytes, openBytes uint64
			var cpMS, lockMS, openMS float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Add(rdf.Triple{S: rdf.NewIRI("http://e/extra"), P: rdf.NewIRI("http://e/p"), O: rdf.NewInteger(int64(i))})
				tr := obs.NewTrace("checkpoint")
				before, start := totalAlloc(), time.Now()
				if err := s.CheckpointTraced(tr.Root()); err != nil {
					b.Fatal(err)
				}
				cpMS, cpBytes = float64(time.Since(start).Microseconds())/1e3, totalAlloc()-before
				tr.Finish()
				for _, sp := range tr.Export().Children {
					if sp.Name == "snapshot_encode" {
						lockMS = sp.DurationMS
					}
				}
			}
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
			seg := s.Stats()
			fi, err := os.Stat(segmentPath(dir, seg.Epoch))
			if err != nil {
				b.Fatal(err)
			}
			s, g = nil, nil
			runtime.GC()
			before, start := totalAlloc(), time.Now()
			s2, err := Open(Options{Dir: dir, Sync: SyncBatch})
			if err != nil {
				b.Fatal(err)
			}
			openMS, openBytes = float64(time.Since(start).Microseconds())/1e3, totalAlloc()-before
			b.ReportMetric(float64(s2.Graph().Len()), "triples")
			b.ReportMetric(float64(fi.Size())/1e6, "segment-MB")
			b.ReportMetric(float64(cpBytes)/1e6, "checkpoint-alloc-MB")
			b.ReportMetric(cpMS, "checkpoint-ms")
			b.ReportMetric(lockMS, "encode-lock-ms")
			b.ReportMetric(float64(openBytes)/1e6, "open-alloc-MB")
			b.ReportMetric(openMS, "open-ms")
			s2.Close()
		})
	}
}
