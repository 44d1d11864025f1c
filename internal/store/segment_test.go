package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rdfanalytics/internal/rdf"
)

// buildSegment checkpoints g into dir the way Store.checkpoint does.
func buildSegment(t *testing.T, dir string, g *rdf.Graph) *Segment {
	t.Helper()
	var buf bytes.Buffer
	epoch, triples, err := g.SnapshotBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := writeSegment(dir, epoch, buf.Bytes(), triples)
	if err != nil {
		t.Fatal(err)
	}
	return seg
}

func TestSegmentRoundTrip(t *testing.T) {
	g := rdf.MustLoadTurtle(`@prefix ex: <http://e/> .
ex:a ex:p ex:b ; ex:q "v" .
ex:b ex:p ex:c .
ex:c ex:p ex:a .`)
	epoch := g.Version()
	seg := buildSegment(t, t.TempDir(), g)
	if seg.Epoch != epoch || seg.Triples != g.Len() {
		t.Fatalf("built segment epoch %d / %d triples, want %d / %d", seg.Epoch, seg.Triples, epoch, g.Len())
	}
	loaded, image, err := loadSegment(seg.Path)
	if err != nil {
		t.Fatal(err)
	}
	if *loaded != *seg {
		t.Fatalf("loaded segment %+v, built %+v", *loaded, *seg)
	}
	// Deterministic snapshots: byte equality is triple-set and
	// dictionary-ID equality.
	if !bytes.Equal(snapshotBytes(t, image), snapshotBytes(t, g)) {
		t.Fatal("decoded segment graph differs from the graph it was cut from")
	}
}

// TestSegmentRejectsCorruption flips every 97th byte in turn: the CRC (or a
// structural check) must catch each one.
func TestSegmentRejectsCorruption(t *testing.T) {
	g := rdf.MustLoadTurtle(`<http://e/s> <http://e/p> <http://e/o> .`)
	dir := t.TempDir()
	seg := buildSegment(t, dir, g)
	raw, err := os.ReadFile(seg.Path)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(raw); off += 7 {
		bad := append([]byte{}, raw...)
		bad[off] ^= 0xFF
		path := dir + "/corrupt.seg"
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := loadSegment(path); err == nil {
			t.Fatalf("corruption at offset %d went undetected", off)
		}
	}
	// Truncations must be rejected too.
	for _, cut := range []int{0, 5, 12, len(raw) / 2, len(raw) - 1} {
		path := dir + "/trunc.seg"
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := loadSegment(path); err == nil {
			t.Fatalf("truncation at %d went undetected", cut)
		}
	}
}

// buildV1FixtureState performs the operations testdata/v1 was recorded
// with (by the last commit that wrote version-1 segments): bootstrap 40
// triples, a second checkpoint after 10 more, then an un-checkpointed WAL
// tail of 6 inserts and 2 deletes.
func buildV1FixtureState(t *testing.T, dir string) *Store {
	t.Helper()
	s := openTest(t, dir)
	g := rdf.NewGraph()
	for i := 0; i < 40; i++ {
		g.Add(rdf.Triple{S: iri(fmt.Sprintf("s%d", i%8)), P: iri(fmt.Sprintf("p%d", i%3)), O: rdf.NewInteger(int64(i))})
	}
	if err := s.Bootstrap(g); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		g.Add(rdf.Triple{S: iri(fmt.Sprintf("s%d", i)), P: iri("label"), O: rdf.NewLangString(fmt.Sprintf("name %d", i), "en")})
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		g.Add(rdf.Triple{S: iri(fmt.Sprintf("t%d", i)), P: iri("p0"), O: iri(fmt.Sprintf("s%d", i))})
	}
	g.Remove(rdf.Triple{S: iri("s1"), P: iri("p1"), O: rdf.NewInteger(1)})
	g.Remove(rdf.Triple{S: iri("t2"), P: iri("p0"), O: iri("s2")})
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestOpenReadsVersion1Segment: a data dir written before the key sections
// were dropped (version-1 segment + WAL tail) opens to exactly what the
// same history gives through today's writer and a reopen.
func TestOpenReadsVersion1Segment(t *testing.T) {
	v1 := t.TempDir()
	fixture := map[string][]byte{"segment-0000000000000032.seg": nil, "wal-0000000000000032.log": nil}
	for name := range fixture {
		raw, err := os.ReadFile(filepath.Join("testdata", "v1", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(v1, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		fixture[name] = raw
	}
	seg := fixture["segment-0000000000000032.seg"]
	if seg[4] != 1 {
		t.Fatalf("fixture segment is version %d, want 1", seg[4])
	}
	old := openTest(t, v1)
	defer old.Close()

	v2 := t.TempDir()
	buildV1FixtureState(t, v2).Close()
	cur := openTest(t, v2)
	defer cur.Close()

	if !bytes.Equal(snapshotBytes(t, old.Graph()), snapshotBytes(t, cur.Graph())) {
		t.Fatal("version-1 data dir opened to a different graph than the version-2 round trip")
	}
	if old.Graph().Version() != cur.Graph().Version() {
		t.Fatalf("graph version %d from v1, %d from v2", old.Graph().Version(), cur.Graph().Version())
	}
	so, sc := old.Stats(), cur.Stats()
	if so.Epoch != sc.Epoch || so.SegmentTriples != sc.SegmentTriples || so.ReplayRecords != sc.ReplayRecords {
		t.Fatalf("v1 stats epoch %d / %d segment triples / %d replayed, v2 %d / %d / %d",
			so.Epoch, so.SegmentTriples, so.ReplayRecords, sc.Epoch, sc.SegmentTriples, sc.ReplayRecords)
	}
	if so.Epoch != 50 || so.SegmentTriples != 50 || so.ReplayRecords != 8 || old.Graph().Len() != 54 {
		t.Fatalf("v1 fixture opened to epoch %d / %d segment triples / %d replayed / %d triples, recorded 50 / 50 / 8 / 54",
			so.Epoch, so.SegmentTriples, so.ReplayRecords, old.Graph().Len())
	}
	// The key sections are skipped, not ignored: a version-1 file whose
	// sections are the wrong length for its triple count is refused.
	short := append(append([]byte{}, seg[:len(seg)-4-v1KeyWidth]...), 0, 0, 0, 0)
	resealSegment(short)
	path := filepath.Join(t.TempDir(), "short.seg")
	if err := os.WriteFile(path, short, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadSegment(path); err == nil {
		t.Fatal("version-1 segment with a short key section loaded")
	}
	// The next checkpoint rewrites the dir in the current format.
	if err := old.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(segmentPath(v1, old.Stats().Epoch))
	if err != nil {
		t.Fatal(err)
	}
	if raw[4] != segmentVersion {
		t.Fatalf("checkpoint wrote segment version %d, want %d", raw[4], segmentVersion)
	}
}
