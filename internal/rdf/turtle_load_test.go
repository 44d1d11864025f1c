package rdf_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"
	"time"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/rdf"
)

// serialize writes g as N-Triples or, as rdfa-cli gen does, as Turtle with
// the dataset's namespace as ex:.
func serialize(tb testing.TB, g *rdf.Graph, ns, format string) []byte {
	var buf bytes.Buffer
	var err error
	if format == "nt" {
		err = rdf.WriteNTriples(&buf, g)
	} else {
		err = rdf.WriteTurtle(&buf, g, map[string]string{"ex": ns})
	}
	if err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadTurtleMatchesReferenceOnDatasets loads the generated datasets, as
// N-Triples and as Turtle, with LoadTurtle and with the parser it replaced.
func TestLoadTurtleMatchesReferenceOnDatasets(t *testing.T) {
	for _, ds := range []struct {
		spec  string
		scale int
	}{{"products-small", 0}, {"invoices-small", 0}, {"stats", 0}, {"products", 1000}} {
		g, ns, err := datagen.Load(ds.spec, ds.scale)
		if err != nil {
			t.Fatal(err)
		}
		for _, format := range []string{"nt", "ttl"} {
			if d := rdf.DiffLoad(string(serialize(t, g, ns, format)), true); d != "" {
				t.Errorf("%s %d as %s: %s", ds.spec, ds.scale, format, d)
			}
		}
	}
}

// TestKnownTermsDoNotAllocate loads one N-Triples line repeated: past the
// first copy every term is known, and finding one allocates nothing, so a
// hundred times the copies costs only the slices that grow with the input.
func TestKnownTermsDoNotAllocate(t *testing.T) {
	line := `<http://e.org/s> <http://e.org/p> "a literal the dictionary holds"@en .` + "\n"
	allocs := func(copies int) float64 {
		doc := strings.Repeat(line, copies)
		return testing.AllocsPerRun(5, func() {
			if _, err := rdf.LoadTurtleString(doc); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, big := allocs(100), allocs(10000)
	t.Logf("allocations per load: %.0f for 100 copies, %.0f for 10 000", small, big)
	if big > small+20 {
		t.Errorf("10 000 copies allocate %.0f times, 100 copies %.0f: known terms allocate", big, small)
	}
}

// BenchmarkLoadTurtle loads the products graph, as rdfa-cli gen writes it, at
// 11 200 laptops (99k triples) and 112 000 (990k), from a file as N-Triples
// and as Turtle. Per triple it reports time, allocations and bytes
// allocated; and the heap's peak during one more load, after a collection,
// above what was live before it: /memory/classes/heap/objects:bytes sampled
// every 100 µs.
func BenchmarkLoadTurtle(b *testing.B) {
	for _, laptops := range []int{11200, 112000} {
		for _, format := range []string{"nt", "ttl"} {
			b.Run(fmt.Sprintf("%d-%s", laptops, format), func(b *testing.B) {
				path, triples := loadTurtleFile(b, laptops, format)
				info, err := os.Stat(path)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(info.Size())
				load := func() {
					f, err := os.Open(path)
					if err != nil {
						b.Fatal(err)
					}
					defer f.Close()
					if _, err := rdf.LoadTurtle(f); err != nil {
						b.Fatal(err)
					}
				}
				runtime.GC()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for b.Loop() {
					load()
				}
				runtime.ReadMemStats(&after)
				runtime.GC()
				peak := peakHeap(load)
				per := float64(b.N) * float64(triples)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/triple")
				b.ReportMetric(float64(after.Mallocs-before.Mallocs)/per, "allocs/triple")
				b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/per, "B/triple")
				b.ReportMetric(float64(peak)/(1<<20), "peak-MB")
			})
		}
	}
}

// loadTurtleFile writes the products graph at a scale to a file in format
// and returns its path and triple count; the graph is gone when it returns.
func loadTurtleFile(b *testing.B, laptops int, format string) (string, int) {
	g, ns, err := datagen.Load("products", laptops)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "products."+format)
	if err := os.WriteFile(path, serialize(b, g, ns, format), 0o644); err != nil {
		b.Fatal(err)
	}
	return path, g.Len()
}

// peakHeap runs fn and returns the most heap objects bytes sampled while it
// ran, above the amount live when it started.
func peakHeap(fn func()) uint64 {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() uint64 { metrics.Read(sample); return sample[0].Value.Uint64() }
	base, peak := read(), uint64(0)
	done, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		tick := time.NewTicker(100 * time.Microsecond)
		defer tick.Stop()
		for {
			peak = max(peak, read())
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	fn()
	close(done)
	<-stopped
	return max(peak, base) - base
}
