package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"rdfanalytics/internal/rdf"
)

func openTest(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(Options{Dir: dir, Sync: SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func iri(s string) rdf.Term { return rdf.NewIRI("http://e/" + s) }

func snapshotBytes(t *testing.T, g *rdf.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStoreReopenRestoresGraph is the core durability contract: everything
// synced before a crash (simulated by abandoning the store without Close)
// is present after reopen, byte-identically — same triples, same
// dictionary IDs.
func TestStoreReopenRestoresGraph(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	g := s.Graph()
	g.Add(rdf.Triple{S: iri("a"), P: iri("p"), O: iri("b")})
	g.Add(rdf.Triple{S: iri("b"), P: iri("p"), O: iri("c")})
	g.Add(rdf.Triple{S: iri("a"), P: iri("q"), O: rdf.NewString("v")})
	g.Remove(rdf.Triple{S: iri("b"), P: iri("p"), O: iri("c")})
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	want := snapshotBytes(t, g)
	wantVersion := g.Version()
	// No Close: the process "crashes" here.
	s2 := openTest(t, dir)
	if got := snapshotBytes(t, s2.Graph()); !bytes.Equal(got, want) {
		t.Fatal("reopened graph differs from pre-crash graph")
	}
	if v := s2.Graph().Version(); v != wantVersion {
		t.Fatalf("version = %d after reopen, want %d", v, wantVersion)
	}
	s2.Close()
}

// TestStoreCheckpointAndTail: state = segment + WAL tail; reopen folds both.
func TestStoreCheckpointAndTail(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	g := s.Graph()
	for i := 0; i < 50; i++ {
		g.Add(rdf.Triple{S: iri("s"), P: iri("p"), O: rdf.NewInteger(int64(i))})
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint mutations land in the fresh WAL only.
	g.Add(rdf.Triple{S: iri("s"), P: iri("p"), O: rdf.NewInteger(100)})
	g.Remove(rdf.Triple{S: iri("s"), P: iri("p"), O: rdf.NewInteger(0)})
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	want := snapshotBytes(t, g)
	st := s.Stats()
	if st.Segments != 1 || st.SegmentTriples != 50 || st.TailRecords != 2 {
		t.Fatalf("stats = %+v, want 1 segment of 50 triples and 2 tail records", st)
	}

	s2 := openTest(t, dir)
	if got := snapshotBytes(t, s2.Graph()); !bytes.Equal(got, want) {
		t.Fatal("segment+tail reopen differs from pre-crash graph")
	}
	st2 := s2.Stats()
	if st2.ReplayRecords != 2 {
		t.Fatalf("replayed %d records, want 2", st2.ReplayRecords)
	}
	s2.Close()
}

// TestStoreTornTailDiscarded: a partial final record (unsynced buffered
// write cut short by the crash) is discarded; every synced update survives.
func TestStoreTornTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	g := s.Graph()
	g.Add(rdf.Triple{S: iri("a"), P: iri("p"), O: iri("b")})
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	want := snapshotBytes(t, g)
	walFile := s.wal.path
	s.wal.w.Flush()
	// Simulate a torn write: append half a frame of garbage to the log.
	f, err := os.OpenFile(walFile, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 0, 40, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := openTest(t, dir)
	if got := snapshotBytes(t, s2.Graph()); !bytes.Equal(got, want) {
		t.Fatal("torn tail corrupted recovered state")
	}
	if s2.Stats().ReplayDiscarded == 0 {
		t.Fatal("expected discarded bytes to be reported")
	}
	// The store must keep accepting writes on the truncated log.
	s2.Graph().Add(rdf.Triple{S: iri("x"), P: iri("p"), O: iri("y")})
	if err := s2.Sync(); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3 := openTest(t, dir)
	if !s3.Graph().Has(rdf.Triple{S: iri("x"), P: iri("p"), O: iri("y")}) {
		t.Fatal("post-recovery write lost")
	}
	s3.Close()
}

// TestStoreCrashMidCheckpoint reconstructs the worst crash window: a
// checkpoint cut its snapshot at epoch E, mutations (an add and its remove)
// landed in the old WAL after the cut, the new segment is installed, and
// the fresh WAL got only a prefix of the surviving records — just the add —
// before the crash. Reopen must apply each mutation exactly once, in order:
// replaying the new WAL's duplicate add after the old WAL's remove would
// resurrect the deleted triple.
func TestStoreCrashMidCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	g := s.Graph()
	base := rdf.Triple{S: iri("a"), P: iri("p"), O: iri("b")}
	mid := rdf.Triple{S: iri("a"), P: iri("p"), O: iri("c")}
	tmp := rdf.Triple{S: iri("tmp"), P: iri("p"), O: iri("z")}
	g.Add(base) // v1
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	g.Add(mid)    // v2 — will be inside the crashed checkpoint's segment
	g.Add(tmp)    // v3 — journaled after the snapshot cut
	g.Remove(tmp) // v4
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	want := snapshotBytes(t, g)
	// The real store is now segment-1 + wal-1 {v2, v3, v4}. Overlay the
	// crashed checkpoint's artifacts: segment-2 (the graph as of v2) and a
	// partial wal-2 holding only the add of tmp (v3).
	img := rdf.NewGraph()
	img.Add(base)
	img.Add(mid)
	epoch := buildSegment(t, dir, img).Epoch
	if epoch != 2 {
		t.Fatalf("crafted snapshot epoch = %d, want 2", epoch)
	}
	nw, err := createWAL(dir, epoch, SyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.append(record{version: 3, op: rdf.JournalAdd, t: tmp}); err != nil {
		t.Fatal(err)
	}
	if err := nw.close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir)
	if s2.Graph().Has(tmp) {
		t.Fatal("removed triple resurrected by duplicate replay of its add")
	}
	if got := snapshotBytes(t, s2.Graph()); !bytes.Equal(got, want) {
		t.Fatal("crash mid-checkpoint recovered to a different graph")
	}
	if v := s2.Graph().Version(); v != 4 {
		t.Fatalf("version = %d after recovery, want 4", v)
	}
	// Consolidation must leave exactly one WAL holding the full tail, so a
	// third open (after the old logs are gone) still has every record.
	_, wals, err := listFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(wals) != 1 {
		t.Fatalf("%d WAL files after consolidation, want 1", len(wals))
	}
	s2.Close()
	s3 := openTest(t, dir)
	if got := snapshotBytes(t, s3.Graph()); !bytes.Equal(got, want) {
		t.Fatal("consolidated WAL lost records")
	}
	s3.Close()
}

// TestStoreReplayIsIdempotent re-opens the same directory repeatedly with
// no writes in between: state and version must be fixed points.
func TestStoreReplayIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	g := s.Graph()
	g.Add(rdf.Triple{S: iri("a"), P: iri("p"), O: iri("b")})
	g.Add(rdf.Triple{S: iri("b"), P: iri("p"), O: iri("c")})
	g.Remove(rdf.Triple{S: iri("a"), P: iri("p"), O: iri("b")})
	s.Sync()
	want := snapshotBytes(t, g)
	wantVersion := g.Version()
	for i := 0; i < 3; i++ {
		s2 := openTest(t, dir)
		if got := snapshotBytes(t, s2.Graph()); !bytes.Equal(got, want) {
			t.Fatalf("reopen %d changed the graph", i)
		}
		if v := s2.Graph().Version(); v != wantVersion {
			t.Fatalf("reopen %d: version %d, want %d", i, v, wantVersion)
		}
		s2.Close()
	}
}

// TestStoreBootstrap: first boot adopts a pre-loaded graph, checkpoints it,
// and journals everything after.
func TestStoreBootstrap(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	if !s.Empty() {
		t.Fatal("fresh store not Empty")
	}
	g := rdf.MustLoadTurtle(`@prefix ex: <http://e/> .
ex:a ex:p ex:b . ex:b ex:p ex:c .`)
	if err := s.Bootstrap(g); err != nil {
		t.Fatal(err)
	}
	if s.Empty() {
		t.Fatal("bootstrapped store still Empty")
	}
	g.Add(rdf.Triple{S: iri("c"), P: iri("p"), O: iri("d")})
	s.Sync()
	want := snapshotBytes(t, g)
	s.Close()
	s2 := openTest(t, dir)
	if got := snapshotBytes(t, s2.Graph()); !bytes.Equal(got, want) {
		t.Fatal("bootstrap + update lost across reopen")
	}
	if err := s2.Bootstrap(rdf.NewGraph()); err == nil {
		t.Fatal("Bootstrap accepted on a non-empty store")
	}
	s2.Close()
}

// TestStoreBackgroundCheckpoint: the checkpoint loop compacts the WAL
// without any explicit trigger.
func TestStoreBackgroundCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Sync: SyncBatch, CheckpointEvery: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s.Graph().Add(rdf.Triple{S: iri("a"), P: iri("p"), O: iri("b")})
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Segments == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background checkpoint never ran")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := s.Stats(); st.TailRecords != 0 {
		t.Fatalf("tail not folded by checkpoint: %+v", st)
	}
	s.Close()
}

// TestStoreSyncAlwaysAndOff exercises the other two WAL modes end to end.
func TestStoreSyncAlwaysAndOff(t *testing.T) {
	for _, mode := range []SyncMode{SyncAlways, SyncOff} {
		dir := t.TempDir()
		s, err := Open(Options{Dir: dir, Sync: mode})
		if err != nil {
			t.Fatal(err)
		}
		s.Graph().Add(rdf.Triple{S: iri("a"), P: iri("p"), O: iri("b")})
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		s.Close()
		s2 := openTest(t, dir)
		if !s2.Graph().Has(rdf.Triple{S: iri("a"), P: iri("p"), O: iri("b")}) {
			t.Fatalf("mode %v lost a synced write across clean close", mode)
		}
		s2.Close()
	}
}

func TestStoreDataFilesNamed(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	s.Graph().Add(rdf.Triple{S: iri("a"), P: iri("p"), O: iri("b")})
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var seg, wal int
	for _, e := range entries {
		switch {
		case strings.HasPrefix(e.Name(), "segment-") && strings.HasSuffix(e.Name(), ".seg"):
			seg++
		case strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".log"):
			wal++
		default:
			t.Errorf("unexpected file %q in data dir", e.Name())
		}
	}
	if seg != 1 || wal != 1 {
		t.Fatalf("data dir has %d segments and %d WALs, want 1 and 1", seg, wal)
	}
}

// TestStoreConcurrentCheckpoints hammers Checkpoint from several goroutines
// while a writer keeps mutating. Serialization (cpMu) must keep installed
// epochs monotonic and lose nothing: the reopened graph is byte-identical
// to the final live graph, and the data dir holds exactly one segment and
// one WAL.
func TestStoreConcurrentCheckpoints(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	g := s.Graph()

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Alternate add/remove over a bounded key space so the graph —
			// and with it each checkpoint's snapshot — stays small; every
			// mutation is still effective and journaled.
			tr := rdf.Triple{S: iri("s"), P: iri("p"), O: rdf.NewInteger(int64(i % 64))}
			if g.Has(tr) {
				g.Remove(tr)
			} else {
				g.Add(tr)
			}
			if i%16 == 0 {
				if err := s.Sync(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	var cps sync.WaitGroup
	for c := 0; c < 4; c++ {
		cps.Add(1)
		go func() {
			defer cps.Done()
			var last uint64
			for i := 0; i < 8; i++ {
				if err := s.Checkpoint(); err != nil {
					t.Error(err)
					return
				}
				if e := s.Stats().Epoch; e < last {
					t.Errorf("epoch regressed %d -> %d", last, e)
					return
				} else {
					last = e
				}
			}
		}()
	}
	// The writer runs until every checkpointer is done, so checkpoints
	// genuinely overlap live mutations.
	cps.Wait()
	close(stop)
	writer.Wait()

	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	want := snapshotBytes(t, g)
	s2 := openTest(t, dir)
	if got := snapshotBytes(t, s2.Graph()); !bytes.Equal(got, want) {
		t.Fatal("concurrent checkpoints lost acknowledged records")
	}
	s2.Close()
	segs, wals, err := listFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || len(wals) != 1 {
		t.Fatalf("data dir has %d segments and %d WALs, want 1 and 1", len(segs), len(wals))
	}
}

// TestStoreCheckpointNoopWhenClean: a second checkpoint with nothing new
// must not rewrite anything — in particular it must not truncate the live
// WAL (same epoch means same wal-<epoch>.log path) under the open handle.
func TestStoreCheckpointNoopWhenClean(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	g := s.Graph()
	g.Add(rdf.Triple{S: iri("a"), P: iri("p"), O: iri("b")})
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := s.Stats().Checkpoints; n != 1 {
		t.Fatalf("clean re-checkpoint ran anyway: %d checkpoints, want 1", n)
	}
	// The store must still accept and persist writes afterwards.
	g.Add(rdf.Triple{S: iri("c"), P: iri("p"), O: iri("d")})
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	want := snapshotBytes(t, g)
	s.Close()
	s2 := openTest(t, dir)
	if got := snapshotBytes(t, s2.Graph()); !bytes.Equal(got, want) {
		t.Fatal("write after no-op checkpoint lost")
	}
	s2.Close()
}

// TestStoreOpenRefusesUncoveredCorruptSegment: when the only segment is
// corrupt and no WAL reaches back to the previous epoch, the records in
// the gap are unrecoverable — Open must refuse instead of silently booting
// a partial graph.
func TestStoreOpenRefusesUncoveredCorruptSegment(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	s.Graph().Add(rdf.Triple{S: iri("a"), P: iri("p"), O: iri("b")})
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	segs, _, err := listFiles(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("listFiles = %v, %v", segs, err)
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, Sync: SyncBatch}); err == nil {
		t.Fatal("Open succeeded over an unrecoverable segment gap")
	}
}

// TestStoreOpenFallsBackWithWALCoverage: a corrupt segment newer than the
// intact one is skipped when the surviving WAL reaches back to the intact
// epoch — replay rebuilds the full state, losslessly.
func TestStoreOpenFallsBackWithWALCoverage(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	g := s.Graph()
	g.Add(rdf.Triple{S: iri("a"), P: iri("p"), O: iri("b")})
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	epoch := s.Stats().Epoch
	// Tail records past the checkpoint, still only in the WAL.
	g.Add(rdf.Triple{S: iri("c"), P: iri("p"), O: iri("d")})
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	want := snapshotBytes(t, g)
	s.Close()
	// A rotted segment claiming a newer epoch than the intact one.
	garbage := segmentPath(dir, epoch+10)
	if err := os.WriteFile(garbage, []byte("not a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, dir)
	if got := snapshotBytes(t, s2.Graph()); !bytes.Equal(got, want) {
		t.Fatal("fallback past corrupt newer segment lost records despite WAL coverage")
	}
	s2.Close()
}

// TestStoreJournalDropDiverges: when the WAL rejects an append while the
// graph mutation still applies, the store must report the divergence, and
// a successful checkpoint — which folds the full live graph into the new
// segment — must make the dropped mutation durable and clear the flag.
func TestStoreJournalDropDiverges(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	g := s.Graph()
	g.Add(rdf.Triple{S: iri("a"), P: iri("p"), O: iri("b")})
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.wal.err = errors.New("injected disk failure")
	s.mu.Unlock()
	dropped := rdf.Triple{S: iri("c"), P: iri("p"), O: iri("d")}
	g.Add(dropped)
	st := s.Stats()
	if st.JournalDropped != 1 || !st.Diverged {
		t.Fatalf("drop not tracked: %+v", st)
	}
	if err := s.Sync(); err == nil {
		t.Fatal("Sync acknowledged an update whose journal entry was dropped")
	}
	// Checkpoint retires the broken WAL; the new segment holds the dropped
	// mutation, reconverging graph and disk.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.Diverged {
		t.Fatal("still diverged after a successful checkpoint")
	}
	if st.JournalDropped != 1 {
		t.Fatalf("cumulative drop counter = %d, want 1", st.JournalDropped)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("fresh WAL still broken after checkpoint: %v", err)
	}
	want := snapshotBytes(t, g)
	s.Close()
	s2 := openTest(t, dir)
	if !s2.Graph().Has(dropped) {
		t.Fatal("dropped mutation not durable after checkpoint")
	}
	if got := snapshotBytes(t, s2.Graph()); !bytes.Equal(got, want) {
		t.Fatal("reconverged store differs from live graph")
	}
	s2.Close()
}

// TestSegmentUndecodableSnapshotRejectedAtLoad: a segment whose container
// checksum validates but whose embedded snapshot ReadBinary rejects must
// fail at loadSegment (where Open can refuse it) — the write side no
// longer decodes what it writes, so this is the only decode guard.
func TestSegmentUndecodableSnapshotRejectedAtLoad(t *testing.T) {
	// Craft the container by hand to simulate a format drift: valid CRC,
	// invalid snapshot.
	g := rdf.NewGraph()
	g.Add(rdf.Triple{S: iri("a"), P: iri("p"), O: iri("b")})
	seg := buildSegment(t, t.TempDir(), g)
	raw, err := os.ReadFile(seg.Path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one byte inside the embedded snapshot's magic and re-seal the
	// container CRC so only the snapshot decode can catch it.
	raw[13+8] ^= 0xff
	resealSegment(raw)
	if err := os.WriteFile(seg.Path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadSegment(seg.Path); err == nil {
		t.Fatal("loadSegment accepted a segment with an undecodable snapshot")
	}
}

// resealSegment recomputes the container crc32 trailer over the (possibly
// hand-corrupted) body, so tests can craft segments whose container
// validates while the embedded snapshot does not.
func resealSegment(raw []byte) {
	binary.BigEndian.PutUint32(raw[len(raw)-4:], crc32.ChecksumIEEE(raw[:len(raw)-4]))
}

// TestCheckpointAllocationsIndependentOfGraphSize: a checkpoint serializes
// the live graph and writes those bytes; it builds no per-triple structure
// of its own (a decoded copy, key arrays), so its allocation count does not
// grow with the graph.
func TestCheckpointAllocationsIndependentOfGraphSize(t *testing.T) {
	allocs := func(n int) float64 {
		s := openTest(t, t.TempDir())
		defer s.Close()
		g := s.Graph()
		for i := 0; i < n; i++ {
			g.Add(rdf.Triple{S: iri(fmt.Sprintf("s%d", i/4)), P: iri(fmt.Sprintf("p%d", i%4)), O: rdf.NewInteger(int64(i))})
		}
		i := 0
		return testing.AllocsPerRun(5, func() {
			// One effective mutation per run, or the checkpoint is a no-op.
			g.Add(rdf.Triple{S: iri("extra"), P: iri("p"), O: rdf.NewInteger(int64(i))})
			i++
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(2000), allocs(20000)
	if large >= 2*small {
		t.Fatalf("Checkpoint allocates %.0f times over 20k triples, %.0f over 2k: grows with the graph", large, small)
	}
}

// TestReopenEqualsLiveGraphAfterRandomUpdates: the write side no longer
// decodes its own output, so this (with rdf's TestBinaryRoundTripProperty)
// pins the round trip — a seeded insert/delete mix with checkpoints
// interleaved reopens to the same triples under the same dictionary IDs.
func TestReopenEqualsLiveGraphAfterRandomUpdates(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		s := openTest(t, dir)
		g := s.Graph()
		var live []rdf.Triple
		segTriples := 0 // the graph's size at the last checkpoint
		for op := 0; op < 600; op++ {
			switch r := rng.Intn(100); {
			case r < 60 || len(live) == 0:
				tr := rdf.Triple{S: iri(fmt.Sprintf("s%d", rng.Intn(40))), P: iri(fmt.Sprintf("p%d", rng.Intn(5))), O: rdf.NewInteger(int64(rng.Intn(50)))}
				if g.Add(tr) {
					live = append(live, tr)
				}
			case r < 95:
				i := rng.Intn(len(live))
				g.Remove(live[i])
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			default:
				if err := s.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				segTriples = len(live)
			}
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		want, wantVersion, wantLen := snapshotBytes(t, g), g.Version(), g.Len()
		if wantLen != len(live) {
			t.Fatalf("seed %d: graph holds %d triples, model %d", seed, wantLen, len(live))
		}
		s.Close()
		s2 := openTest(t, dir)
		if got := snapshotBytes(t, s2.Graph()); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: reopened graph differs from the live graph (triples or dictionary IDs)", seed)
		}
		if v := s2.Graph().Version(); v != wantVersion {
			t.Fatalf("seed %d: version %d after reopen, want %d", seed, v, wantVersion)
		}
		for _, tr := range live {
			if !s2.Graph().Has(tr) {
				t.Fatalf("seed %d: reopened graph lost %v", seed, tr)
			}
		}
		if n, n2 := s.Stats().SegmentTriples, s2.Stats().SegmentTriples; n != segTriples || n2 != segTriples {
			t.Fatalf("seed %d: SegmentTriples %d written, %d reloaded, want %d", seed, n, n2, segTriples)
		}
		s2.Close()
	}
}
