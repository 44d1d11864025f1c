package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"rdfanalytics/internal/fault"
	"rdfanalytics/internal/rdf"
)

// Segment file layout (version 2):
//
//	magic "RDFS" | version u8 | epoch u64 BE
//	snapLen u64 BE | snapshot bytes        (the v2 binary graph snapshot)
//	tripleCount u64 BE
//	crc32 u32 BE                           (over everything before it)
//
// The snapshot is length-prefixed so the reader can hand ReadBinary an
// exactly-bounded section of the file (ReadBinary rejects trailing bytes).
// The writer streams the snapshot behind a header whose epoch and snapLen
// are placeholders, then writes them in place: the epoch is the version
// SnapshotBinary captured and the length is known only once it is done.
//
// Version-1 files carried three sorted 12-byte key sections (SPO, POS, OSP;
// tripleCount keys each) between the count and the CRC; nothing read them,
// so version 2 dropped them, and the loader length-checks and skips them in
// the version-1 files existing data dirs still hold.
const (
	segmentMagic   = "RDFS"
	segmentVersion = 2
	// segmentHeaderSize covers magic, version, epoch and snapLen.
	segmentHeaderSize = 21
	// v1KeyWidth is the size of one key in a version-1 key section.
	v1KeyWidth = 12
	// maxSegmentSnap bounds the embedded snapshot size read back from the
	// header; larger means corruption.
	maxSegmentSnap = 1 << 40
)

// A Segment names the installed on-disk image of the graph at one epoch.
// The graph itself lives in memory once, as Store.Graph().
type Segment struct {
	Epoch   uint64
	Path    string
	Triples int
}

func segmentPath(dir string, epoch uint64) string {
	return fmt.Sprintf("%s/segment-%016x.seg", dir, epoch)
}

// segmentFile is a segment being written: a temp file in the data
// directory holding the header (epoch and snapshot length still
// placeholders), the snapshot streamed behind it and the triple count.
// install finishes it under its final name; discard removes it.
type segmentFile struct {
	f       *os.File
	dir     string
	epoch   uint64
	snapLen int64
	triples int
}

// streamSegment creates a temp segment file in dir and streams g's snapshot
// into it. On any error the temp file is removed.
func streamSegment(dir string, g *rdf.Graph) (*segmentFile, error) {
	f, err := os.CreateTemp(dir, "segment-*.tmp")
	if err != nil {
		return nil, err
	}
	sf := &segmentFile{f: f, dir: dir}
	if err := sf.stream(g); err != nil {
		sf.discard()
		return nil, err
	}
	return sf, nil
}

// stream writes the placeholder header, the snapshot through
// Graph.SnapshotBinary — which holds the graph read lock for the encode and
// returns the version it captured: the segment's epoch — and the triple
// count. The graph image exists once, in memory; the file gets it 64 KB at
// a time, and the file offset after the encode gives its length.
func (sf *segmentFile) stream(g *rdf.Graph) error {
	var hdr [segmentHeaderSize]byte
	copy(hdr[:], segmentMagic)
	hdr[4] = segmentVersion
	if _, err := sf.f.Write(hdr[:]); err != nil {
		return err
	}
	if err := fault.Inject("store.segment.begin"); err != nil {
		return err
	}
	var err error
	if sf.epoch, sf.triples, err = g.SnapshotBinary(sf.f); err != nil {
		return err
	}
	off, err := sf.f.Seek(0, io.SeekCurrent)
	if err != nil {
		return err
	}
	sf.snapLen = off - segmentHeaderSize
	var n8 [8]byte
	binary.BigEndian.PutUint64(n8[:], uint64(sf.triples))
	if _, err := sf.f.Write(n8[:]); err != nil {
		return err
	}
	return fault.Inject("store.segment.streamed")
}

// install atomically installs the streamed segment: write the real epoch
// and snapshot length into the header, checksum the file in one read pass
// (from the page cache), append the CRC trailer, fsync, rename into place,
// fsync the directory. On any error the temp file is removed, and so is the
// renamed file if the directory fsync fails, leaving the directory as it
// was before the checkpoint.
func (sf *segmentFile) install() (*Segment, error) {
	if err := sf.finish(); err != nil {
		sf.discard()
		return nil, err
	}
	if err := sf.f.Close(); err != nil {
		os.Remove(sf.f.Name())
		return nil, err
	}
	path := segmentPath(sf.dir, sf.epoch)
	if err := fault.Inject("store.segment.rename"); err != nil {
		os.Remove(sf.f.Name())
		return nil, err
	}
	if err := os.Rename(sf.f.Name(), path); err != nil {
		os.Remove(sf.f.Name())
		return nil, err
	}
	if err := fault.Inject("store.segment.dirsync"); err != nil {
		os.Remove(path)
		return nil, err
	}
	if err := syncDir(sf.dir); err != nil {
		os.Remove(path)
		return nil, err
	}
	return &Segment{Epoch: sf.epoch, Path: path, Triples: sf.triples}, nil
}

// finish patches the header, appends the CRC trailer and fsyncs the file.
func (sf *segmentFile) finish() error {
	var patch [16]byte
	binary.BigEndian.PutUint64(patch[:], sf.epoch)
	binary.BigEndian.PutUint64(patch[8:], uint64(sf.snapLen))
	if _, err := sf.f.WriteAt(patch[:], 5); err != nil {
		return err
	}
	if err := fault.Inject("store.segment.header"); err != nil {
		return err
	}
	body := segmentHeaderSize + sf.snapLen + 8
	sum := crc32.NewIEEE()
	if _, err := io.Copy(sum, io.NewSectionReader(sf.f, 0, body)); err != nil {
		return err
	}
	var trailer [4]byte
	binary.BigEndian.PutUint32(trailer[:], sum.Sum32())
	if _, err := sf.f.WriteAt(trailer[:], body); err != nil {
		return err
	}
	if err := fault.Inject("store.segment.trailer"); err != nil {
		return err
	}
	return sf.f.Sync()
}

// discard closes and removes the unfinished temp file.
func (sf *segmentFile) discard() {
	sf.f.Close()
	os.Remove(sf.f.Name())
}

// loadSegment verifies a segment file (version 1 or 2) and decodes its
// snapshot from the file — the one decode of the Open path; the caller
// adopts the returned graph as the live graph. The CRC is checked in one
// streaming pass before anything is decoded, and the decode reads a section
// of the file bounded to the snapshot, so the image is never in memory
// twice.
func loadSegment(path string) (*Segment, *rdf.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	size := fi.Size()
	if size < segmentHeaderSize+8+4 {
		return nil, nil, fmt.Errorf("store: %s: segment too short (%d bytes)", path, size)
	}
	bodyLen := size - 4
	sum := crc32.NewIEEE()
	if _, err := io.Copy(sum, io.NewSectionReader(f, 0, bodyLen)); err != nil {
		return nil, nil, err
	}
	var trailer [4]byte
	if _, err := f.ReadAt(trailer[:], bodyLen); err != nil {
		return nil, nil, err
	}
	if sum.Sum32() != binary.BigEndian.Uint32(trailer[:]) {
		return nil, nil, fmt.Errorf("store: %s: segment checksum mismatch", path)
	}
	var hdr [segmentHeaderSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return nil, nil, err
	}
	if string(hdr[:4]) != segmentMagic {
		return nil, nil, fmt.Errorf("store: %s is not a segment file (magic %q)", path, hdr[:4])
	}
	version := hdr[4]
	if version != 1 && version != segmentVersion {
		return nil, nil, fmt.Errorf("store: %s: unsupported segment version %d", path, version)
	}
	epoch := binary.BigEndian.Uint64(hdr[5:])
	snapLen := binary.BigEndian.Uint64(hdr[13:])
	rest := uint64(bodyLen - segmentHeaderSize)
	if snapLen > maxSegmentSnap || snapLen > rest {
		return nil, nil, fmt.Errorf("store: %s: implausible snapshot length %d", path, snapLen)
	}
	rest -= snapLen
	if rest < 8 {
		return nil, nil, fmt.Errorf("store: %s: truncated triple count", path)
	}
	var n8 [8]byte
	if _, err := f.ReadAt(n8[:], segmentHeaderSize+int64(snapLen)); err != nil {
		return nil, nil, err
	}
	tripleCount := binary.BigEndian.Uint64(n8[:])
	rest -= 8
	var want uint64 // bytes after the count: the key sections of a version-1 file
	if version == 1 {
		want = tripleCount * 3 * v1KeyWidth
	}
	if rest != want {
		return nil, nil, fmt.Errorf("store: %s: %d bytes after the triple count, want %d", path, rest, want)
	}
	// The CRC vouches for the bytes, not for their meaning: a snapshot that
	// a changed/stricter ReadBinary rejects while the segment container
	// still validates must fail here, where the caller can refuse the
	// segment and fall back.
	g, err := rdf.ReadBinary(io.NewSectionReader(f, segmentHeaderSize, int64(snapLen)))
	if err != nil {
		return nil, nil, fmt.Errorf("store: %s: segment snapshot rejected: %w", path, err)
	}
	if uint64(g.Len()) != tripleCount {
		return nil, nil, fmt.Errorf("store: %s: snapshot holds %d triples, segment records %d", path, g.Len(), tripleCount)
	}
	return &Segment{Epoch: epoch, Path: path, Triples: g.Len()}, g, nil
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable.
func syncDir(dir string) error {
	d, err := os.Open(filepath.Clean(dir))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
