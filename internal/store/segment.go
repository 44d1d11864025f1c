package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

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
// exactly-bounded stream (ReadBinary rejects trailing bytes). Version-1
// files carried three sorted 12-byte key sections (SPO, POS, OSP; tripleCount
// keys each) between the count and the CRC; nothing read them, so version 2
// dropped them, and the loader length-checks and skips them in the
// version-1 files existing data dirs still hold.
const (
	segmentMagic   = "RDFS"
	segmentVersion = 2
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

// writeSegment atomically installs the segment file for the given snapshot
// bytes (as produced by Graph.SnapshotBinary, which also reported triples):
// write to a temp file, fsync, rename into place, fsync the directory.
func writeSegment(dir string, epoch uint64, snap []byte, triples int) (*Segment, error) {
	tmp, err := os.CreateTemp(dir, "segment-*.tmp")
	if err != nil {
		return nil, err
	}
	defer os.Remove(tmp.Name())
	sum := crc32.NewIEEE()
	w := io.MultiWriter(tmp, sum)
	var hdr [21]byte
	copy(hdr[:], segmentMagic)
	hdr[4] = segmentVersion
	binary.BigEndian.PutUint64(hdr[5:], epoch)
	binary.BigEndian.PutUint64(hdr[13:], uint64(len(snap)))
	writeErr := func() error {
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		if _, err := w.Write(snap); err != nil {
			return err
		}
		var n8 [8]byte
		binary.BigEndian.PutUint64(n8[:], uint64(triples))
		if _, err := w.Write(n8[:]); err != nil {
			return err
		}
		var trailer [4]byte
		binary.BigEndian.PutUint32(trailer[:], sum.Sum32())
		_, err := tmp.Write(trailer[:])
		return err
	}()
	if writeErr != nil {
		tmp.Close()
		return nil, writeErr
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return nil, err
	}
	if err := tmp.Close(); err != nil {
		return nil, err
	}
	path := segmentPath(dir, epoch)
	if err := os.Rename(tmp.Name(), path); err != nil {
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		return nil, err
	}
	return &Segment{Epoch: epoch, Path: path, Triples: triples}, nil
}

// loadSegment reads and verifies a segment file (version 1 or 2) and
// decodes its snapshot — the one decode of the Open path; the caller adopts
// the returned graph as the live graph.
func loadSegment(path string) (*Segment, *rdf.Graph, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	if len(raw) < 13+8+8+4 {
		return nil, nil, fmt.Errorf("store: %s: segment too short (%d bytes)", path, len(raw))
	}
	body, trailer := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(trailer) {
		return nil, nil, fmt.Errorf("store: %s: segment checksum mismatch", path)
	}
	if string(body[:4]) != segmentMagic {
		return nil, nil, fmt.Errorf("store: %s is not a segment file (magic %q)", path, body[:4])
	}
	version := body[4]
	if version != 1 && version != segmentVersion {
		return nil, nil, fmt.Errorf("store: %s: unsupported segment version %d", path, version)
	}
	epoch := binary.BigEndian.Uint64(body[5:])
	snapLen := binary.BigEndian.Uint64(body[13:])
	rest := body[21:]
	if snapLen > maxSegmentSnap || snapLen > uint64(len(rest)) {
		return nil, nil, fmt.Errorf("store: %s: implausible snapshot length %d", path, snapLen)
	}
	snap := rest[:snapLen]
	rest = rest[snapLen:]
	if len(rest) < 8 {
		return nil, nil, fmt.Errorf("store: %s: truncated triple count", path)
	}
	tripleCount := binary.BigEndian.Uint64(rest[:8])
	rest = rest[8:]
	var want uint64 // bytes after the count: the key sections of a version-1 file
	if version == 1 {
		want = tripleCount * 3 * v1KeyWidth
	}
	if uint64(len(rest)) != want {
		return nil, nil, fmt.Errorf("store: %s: %d bytes after the triple count, want %d", path, len(rest), want)
	}
	// The CRC vouches for the bytes, not for their meaning: a snapshot that
	// a changed/stricter ReadBinary rejects while the segment container
	// still validates must fail here, where the caller can refuse the
	// segment and fall back.
	g, err := rdf.ReadBinary(bytes.NewReader(snap))
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
