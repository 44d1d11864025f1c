package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/fault"
	"rdfanalytics/internal/rdf"
)

// buildSegment checkpoints g into dir the way Store.checkpoint does.
func buildSegment(t testing.TB, dir string, g *rdf.Graph) *Segment {
	t.Helper()
	sf, err := streamSegment(dir, g)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := sf.install()
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

// TestStreamSegmentWriteError makes the stream fail on a genuine I/O error
// — a header write to a read-only handle, and the offset query on a pipe
// once the encode is done — rather than at a fault site: stream returns the
// error, and discard, as streamSegment calls it, removes the temp file.
func TestStreamSegmentWriteError(t *testing.T) {
	g := rdf.MustLoadTurtle(`<http://e/s> <http://e/p> <http://e/o> .`)
	cases := map[string]func(t *testing.T, dir string) *os.File{
		"read-only file": func(t *testing.T, dir string) *os.File {
			f, err := os.CreateTemp(dir, "segment-*.tmp")
			if err != nil {
				t.Fatal(err)
			}
			f.Close()
			ro, err := os.Open(f.Name())
			if err != nil {
				t.Fatal(err)
			}
			return ro
		},
		"pipe": func(t *testing.T, dir string) *os.File {
			r, w, err := os.Pipe()
			if err != nil {
				t.Fatal(err)
			}
			go io.Copy(io.Discard, r)
			t.Cleanup(func() { r.Close() })
			return w
		},
	}
	for name, open := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			sf := &segmentFile{f: open(t, dir), dir: dir}
			err := sf.stream(g)
			var inj *fault.InjectedError
			if err == nil || errors.As(err, &inj) {
				t.Fatalf("stream returned %v, want an I/O error", err)
			}
			sf.discard()
			if left, _ := filepath.Glob(filepath.Join(dir, "segment-*.tmp")); len(left) != 0 {
				t.Fatalf("temp files left behind: %v", left)
			}
		})
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

// copyFixture copies the data dir recorded in testdata/<name> into a fresh
// directory and returns it with the recorded files' bytes by name.
func copyFixture(t *testing.T, name string) (string, map[string][]byte) {
	t.Helper()
	dir := t.TempDir()
	files := map[string][]byte{}
	for _, file := range []string{"segment-0000000000000032.seg", "wal-0000000000000032.log"} {
		raw, err := os.ReadFile(filepath.Join("testdata", name, file))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, file), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		files[file] = raw
	}
	return dir, files
}

// TestOpenReadsVersion1Segment: a data dir written before the key sections
// were dropped (version-1 segment + WAL tail) opens to exactly what the
// same history gives through today's writer and a reopen.
func TestOpenReadsVersion1Segment(t *testing.T) {
	v1, fixture := copyFixture(t, "v1")
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

// TestOpenReadsRecordedVersion2Segment: testdata/v2 is the history of
// buildV1FixtureState as recorded by the buffered segment writer. It opens
// to the same graph as the streamed writer's round trip, and the streamed
// writer reproduces its files byte for byte.
func TestOpenReadsRecordedVersion2Segment(t *testing.T) {
	rec, fixture := copyFixture(t, "v2")
	old := openTest(t, rec)
	defer old.Close()

	dir := t.TempDir()
	buildV1FixtureState(t, dir).Close()
	for name, want := range fixture {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: streamed writer wrote %d bytes, the recorded file holds %d, or they differ", name, len(got), len(want))
		}
	}
	cur := openTest(t, dir)
	defer cur.Close()
	if !bytes.Equal(snapshotBytes(t, old.Graph()), snapshotBytes(t, cur.Graph())) {
		t.Fatal("recorded version-2 data dir opened to a different graph than the streamed round trip")
	}
	so := old.Stats()
	if so.Epoch != 50 || so.SegmentTriples != 50 || so.ReplayRecords != 8 || old.Graph().Len() != 54 || old.Graph().Version() != cur.Graph().Version() {
		t.Fatalf("recorded v2 fixture opened to epoch %d / %d segment triples / %d replayed / %d triples, recorded 50 / 50 / 8 / 54",
			so.Epoch, so.SegmentTriples, so.ReplayRecords, old.Graph().Len())
	}
}

// FuzzLoadSegment feeds loadSegment arbitrary files, and the same files
// with their CRC trailer recomputed (reseal) so the fuzzer reaches the
// header checks and the snapshot decode behind the checksum. loadSegment
// must never panic, must refuse every file whose CRC does not match with the
// checksum error (it decodes nothing before the CRC passes), and every
// segment it accepts must survive a re-checkpoint: the loaded graph streams
// into a segment that loads to the same triples under the same IDs.
func FuzzLoadSegment(f *testing.F) {
	valid, err := os.ReadFile(buildSegment(f, f.TempDir(), datagen.SmallProducts()).Path)
	if err != nil {
		f.Fatal(err)
	}
	seeds := [][]byte{valid}
	for _, name := range []string{"v1", "v2"} {
		raw, err := os.ReadFile(filepath.Join("testdata", name, "segment-0000000000000032.seg"))
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, raw)
	}
	for _, seed := range seeds {
		f.Add(seed, false)
		for _, cut := range []int{0, 20, 33, len(seed) / 2, len(seed) - 1} {
			f.Add(seed[:cut], false)
			f.Add(seed[:cut], true)
		}
		for _, off := range []int{4, 12, 20, 30, len(seed) / 2, len(seed) - 13, len(seed) - 2} {
			bad := append([]byte{}, seed...)
			bad[off] ^= 0x41
			f.Add(bad, false)
			f.Add(bad, true)
		}
	}
	// One directory per fuzzing process: its inputs run one at a time, and a
	// fresh directory per input would cost more than the load it tests.
	dir := f.TempDir()
	path := filepath.Join(dir, "fuzz.seg")
	f.Fuzz(func(t *testing.T, raw []byte, reseal bool) {
		if reseal && len(raw) >= 4 {
			resealSegment(raw)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		seg, g, err := loadSegment(path)
		crcOK := len(raw) >= 4 && crc32.ChecksumIEEE(raw[:len(raw)-4]) == binary.BigEndian.Uint32(raw[len(raw)-4:])
		if err != nil {
			if !crcOK && len(raw) >= segmentHeaderSize+8+4 && !strings.Contains(err.Error(), "checksum mismatch") {
				t.Fatalf("file with a bad CRC refused by a later check: %v", err)
			}
			return
		}
		if !crcOK {
			t.Fatal("loadSegment accepted a file whose CRC does not match")
		}
		again := buildSegment(t, dir, g)
		if again.Triples != seg.Triples {
			t.Fatalf("re-checkpoint holds %d triples, loaded segment %d", again.Triples, seg.Triples)
		}
		_, g2, err := loadSegment(again.Path)
		if err != nil {
			t.Fatalf("re-checkpointed segment does not load: %v", err)
		}
		if !bytes.Equal(snapshotBytes(t, g2), snapshotBytes(t, g)) {
			t.Fatal("re-checkpointed segment loads to different triples or IDs")
		}
	})
}
