package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/rdf"
	"rdfanalytics/internal/server"
	"rdfanalytics/internal/store"
)

const ns = datagen.ExampleNS

// fingerprint identifies the generated dataset; the run aborts when it
// differs from the pinned value, so datagen drift cannot silently change
// the load.
type fingerprint struct {
	Triples    int `json:"triples"`
	Subjects   int `json:"subjects"`
	Predicates int `json:"predicates"`
	Classes    int `json:"classes"`
}

// pinned maps a laptop count to the fingerprint of
// datagen.Products{Companies: 16, Seed: 1, Materialize: true} at the commit
// that defined the benchmark.
var pinned = map[int]fingerprint{
	scaleQuick:  {Triples: 1246, Subjects: 245, Predicates: 15, Classes: 12},
	scaleFacet:  {Triples: 99101, Subjects: 16865, Predicates: 15, Classes: 12},
	scaleSPARQL: {Triples: 197982, Subjects: 33665, Predicates: 15, Classes: 12},
}

const (
	scaleQuick  = 120   // ≈1.2k triples: the -quick path of the tests
	scaleFacet  = 11200 // ≈99k triples: the paper's largest table scale
	scaleSPARQL = 22400 // ≈198k triples
)

// record is the provenance every output carries.
type record struct {
	Workload   string      `json:"workload"`
	Seed       int64       `json:"seed"`
	Seconds    float64     `json:"seconds"`
	Quick      bool        `json:"quick,omitempty"`
	GoVersion  string      `json:"go_version"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	NumCPU     int         `json:"nproc"`
	Git        string      `json:"git_describe"`
	Dirty      bool        `json:"dirty"`
	Dataset    fingerprint `json:"dataset"`
}

func newRecord(w *workload, seed int64, seconds float64) record {
	rec := record{
		Workload: w.name, Seed: seed, Seconds: seconds, Quick: w.quick,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Git: "unknown", Dataset: pinned[w.laptops],
	}
	// The acceptance driver runs from an exported tree without .git; the
	// record then says so instead of failing.
	if out, err := exec.Command("git", "describe", "--always", "--dirty").Output(); err == nil {
		rec.Git = strings.TrimSpace(string(out))
		rec.Dirty = strings.HasSuffix(rec.Git, "-dirty")
	}
	return rec
}

// system is one running instance of the program under test: the graph, the
// server on a loopback listener and, for the durable workload, its store.
type system struct {
	g    *rdf.Graph
	srv  *server.Server
	st   *store.Store
	dir  string // store directory, "" when in-memory
	base string // http://127.0.0.1:port
	fp   fingerprint

	cancel context.CancelFunc
	done   chan error

	// set-up phases, milliseconds
	generateMS, materializeMS, bootstrapMS float64
}

// serverConfig equals the flag defaults of cmd/rdfanalytics.
func serverConfig(st *store.Store) server.Config {
	return server.Config{
		QueryTimeout:   30 * time.Second,
		MaxBodyBytes:   server.DefaultMaxBodyBytes,
		SessionTTL:     30 * time.Minute,
		SampleInterval: 10 * time.Second,
		CacheBytes:     64 << 20,
		MaxConcurrent:  64,
		QueueDepth:     128,
		StaleWindow:    30 * time.Second,
		SLO: server.SLOConfig{
			AvailabilityTarget:    0.999,
			LatencyTarget:         0.95,
			LatencyThreshold:      250 * time.Millisecond,
			ShapeLatencyThreshold: time.Second,
		},
		Store: st,
	}
}

// setUp generates the dataset, materializes RDFS, bootstraps a store when
// the workload is durable, and brings the server up on 127.0.0.1:0.
func setUp(laptops int, durable bool, outDir string) (*system, error) {
	s := &system{}
	t := time.Now()
	g := datagen.Products(datagen.ProductsConfig{Laptops: laptops, Companies: 16, Seed: 1})
	s.generateMS = ms(time.Since(t))
	t = time.Now()
	rdf.Materialize(g)
	s.materializeMS = ms(time.Since(t))
	st := g.Stats()
	s.fp = fingerprint{Triples: st.Triples, Subjects: st.Subjects, Predicates: st.Predicates, Classes: st.Classes}
	if want, ok := pinned[laptops]; !ok || want != s.fp {
		return nil, fmt.Errorf("dataset fingerprint %+v differs from the pinned %+v: datagen drifted, the load is not comparable", s.fp, want)
	}
	s.g = g
	if durable {
		dir, err := os.MkdirTemp(outDir, "store-")
		if err != nil {
			return nil, err
		}
		s.dir = dir
		t = time.Now()
		// wal-sync=batch as the server's default; no background checkpointer,
		// so the only checkpoints are the ones the op list asks for.
		if s.st, err = store.Open(store.Options{Dir: dir, Sync: store.SyncBatch}); err == nil {
			err = s.st.Bootstrap(g)
		}
		if err != nil {
			s.tearDown()
			return nil, err
		}
		s.bootstrapMS = ms(time.Since(t))
	}
	if err := s.serve(); err != nil {
		s.tearDown()
		return nil, err
	}
	return s, nil
}

// serve starts the server over s.g and waits until it answers.
func (s *system) serve() error {
	s.srv = server.NewWithConfig(s.g, ns, serverConfig(s.st))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		return err
	}
	s.base = "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	s.done = make(chan error, 1)
	go func() { s.done <- server.RunListener(ctx, ln, s.srv, 5*time.Second) }()
	resp, err := http.Get(s.base + "/healthz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz answered %d", resp.StatusCode)
	}
	return nil
}

// stopServing drains the listener and stops the server's goroutines; the
// graph and the store stay. It does nothing when no server is running, so a
// tearDown after a failed restart neither blocks nor stops twice.
func (s *system) stopServing() error {
	if s.cancel == nil {
		return nil
	}
	s.cancel()
	err := <-s.done
	s.cancel, s.done = nil, nil
	s.srv.Close()
	if err == http.ErrServerClosed {
		err = nil
	}
	return err
}

// closeStore closes the store if one is open.
func (s *system) closeStore() error {
	if s.st == nil {
		return nil
	}
	st := s.st
	s.st = nil
	return st.Close()
}

// tearDown stops everything and removes the store directory.
func (s *system) tearDown() error {
	err := s.stopServing()
	if cerr := s.closeStore(); err == nil {
		err = cerr
	}
	if s.dir != "" {
		if rerr := os.RemoveAll(s.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// restart closes the store, reopens it from disk and serves the restored
// graph. It returns the time store.Open took.
func (s *system) restart() (time.Duration, error) {
	if err := s.stopServing(); err != nil {
		return 0, err
	}
	if err := s.closeStore(); err != nil {
		return 0, err
	}
	t := time.Now()
	dst, err := store.Open(store.Options{Dir: s.dir, Sync: store.SyncBatch})
	if err != nil {
		return 0, err
	}
	restore := time.Since(t)
	s.st, s.g = dst, dst.Graph()
	return restore, s.serve()
}

// dirBytes sums the sizes of the files in dir whose name matches pattern.
func dirBytes(dir, pattern string) int64 {
	names, _ := filepath.Glob(filepath.Join(dir, pattern))
	var n int64
	for _, name := range names {
		if fi, err := os.Stat(name); err == nil {
			n += fi.Size()
		}
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
