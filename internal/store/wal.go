// Package store is the durable storage engine: an append-only write-ahead
// log of add/remove records plus immutable segment files produced by
// checkpoints, giving the in-memory rdf.Graph crash recovery and fast
// restarts. The design is stdlib-only:
//
//   - Every effective graph mutation is journaled to the WAL *before* it is
//     applied in memory (the graph's journal hook runs under the graph write
//     lock, ahead of the index update).
//   - A checkpoint freezes the graph into a segment file — the binary
//     snapshot plus sorted fixed-width key sections — then swaps in a fresh
//     WAL holding only the records newer than the segment's epoch.
//   - On open, the newest segment is loaded and the WAL tail replayed on
//     top, filtered by record version, so replay is idempotent and a crash
//     at any point loses nothing that was acknowledged (synced).
//
// Epochs are rdf.Graph version counters: the same token that invalidates
// the answer cache is the snapshot epoch here.
package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"

	"rdfanalytics/internal/rdf"
)

// SyncMode controls when WAL writes reach stable storage.
type SyncMode int

const (
	// SyncOff never fsyncs; a crash can lose recent acknowledged updates.
	// Fastest, for bulk loads and benchmarks.
	SyncOff SyncMode = iota
	// SyncBatch fsyncs at group-commit points (Store.Sync, called once per
	// update request before the ack is sent) — the default.
	SyncBatch
	// SyncAlways fsyncs after every record.
	SyncAlways
)

// ParseSyncMode maps the -wal-sync flag values to a SyncMode.
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "off":
		return SyncOff, nil
	case "batch", "":
		return SyncBatch, nil
	case "always":
		return SyncAlways, nil
	}
	return 0, fmt.Errorf("store: unknown WAL sync mode %q (want off, batch or always)", s)
}

func (m SyncMode) String() string {
	switch m {
	case SyncOff:
		return "off"
	case SyncAlways:
		return "always"
	default:
		return "batch"
	}
}

// A record is one journaled mutation. The version is the graph version the
// mutation produced; replay filters on it, so re-applying a suffix of the
// log (possible after a crash mid-checkpoint) is a no-op.
type record struct {
	version uint64
	op      rdf.JournalOp
	t       rdf.Triple
}

// WAL file layout:
//
//	magic "RDFW" | version u8 | baseEpoch u64 BE
//	frames: len u32 BE | crc32(payload) u32 BE | payload
//	payload: version u64 BE | op u8 | s | p | o   (terms in snapshot wire encoding)
//
// The base epoch names the segment the log extends; files are named
// wal-<epoch hex16>.log so lexicographic order is epoch order. A torn final
// frame (short write at crash) fails its length or CRC check and is
// truncated away on replay; everything before it is intact.
const (
	walMagic      = "RDFW"
	walVersion    = 1
	walHeaderSize = 4 + 1 + 8
	// maxWALFrame bounds a frame length; larger means a corrupt length
	// field, not a real record (three terms stay far below this).
	maxWALFrame = 64 << 20
)

type wal struct {
	f    *os.File
	w    *bufio.Writer
	path string
	mode SyncMode
	// sticky I/O error: once a write fails, every later append and Sync
	// reports it, so an update can never be acknowledged after its journal
	// entry was dropped.
	err     error
	records int64
	bytes   int64
	scratch []byte
}

func walPath(dir string, epoch uint64) string {
	return fmt.Sprintf("%s/wal-%016x.log", dir, epoch)
}

// createWAL starts an empty log extending the segment at epoch. The header
// is synced immediately so the file is well-formed on disk before any
// record is acknowledged against it.
func createWAL(dir string, epoch uint64, mode SyncMode) (*wal, error) {
	return createWALFile(walPath(dir, epoch), epoch, mode)
}

func createWALFile(path string, epoch uint64, mode SyncMode) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	var hdr [walHeaderSize]byte
	copy(hdr[:], walMagic)
	hdr[4] = walVersion
	binary.BigEndian.PutUint64(hdr[5:], epoch)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return nil, err
	}
	if mode != SyncOff {
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return &wal{f: f, w: bufio.NewWriterSize(f, 64<<10), path: path, mode: mode, bytes: walHeaderSize}, nil
}

// openWALForAppend reopens an existing (already replayed and truncated) log
// and positions at its end.
func openWALForAppend(path string, mode SyncMode) (*wal, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &wal{f: f, w: bufio.NewWriterSize(f, 64<<10), path: path, mode: mode, bytes: fi.Size()}, nil
}

func encodeRecord(dst []byte, rec record) []byte {
	dst = binary.BigEndian.AppendUint64(dst, rec.version)
	dst = append(dst, byte(rec.op))
	dst = rdf.AppendTermBinary(dst, rec.t.S)
	dst = rdf.AppendTermBinary(dst, rec.t.P)
	dst = rdf.AppendTermBinary(dst, rec.t.O)
	return dst
}

func decodeRecord(payload []byte) (record, error) {
	if len(payload) < 9 {
		return record{}, fmt.Errorf("store: WAL payload too short (%d bytes)", len(payload))
	}
	rec := record{
		version: binary.BigEndian.Uint64(payload),
		op:      rdf.JournalOp(payload[8]),
	}
	if rec.op != rdf.JournalAdd && rec.op != rdf.JournalRemove {
		return record{}, fmt.Errorf("store: unknown WAL op %d", payload[8])
	}
	rest := payload[9:]
	for i := 0; i < 3; i++ {
		t, n, err := rdf.DecodeTermBinary(rest)
		if err != nil {
			return record{}, err
		}
		switch i {
		case 0:
			rec.t.S = t
		case 1:
			rec.t.P = t
		case 2:
			rec.t.O = t
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return record{}, fmt.Errorf("store: %d stray bytes in WAL payload", len(rest))
	}
	return rec, nil
}

// append journals one record. In SyncAlways mode it is durable on return;
// otherwise durability waits for Sync.
func (w *wal) append(rec record) error {
	if w.err != nil {
		return w.err
	}
	w.scratch = w.scratch[:0]
	w.scratch = encodeRecord(w.scratch, rec)
	var frame [8]byte
	binary.BigEndian.PutUint32(frame[:4], uint32(len(w.scratch)))
	binary.BigEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(w.scratch))
	if _, err := w.w.Write(frame[:]); err != nil {
		w.err = err
		return err
	}
	if _, err := w.w.Write(w.scratch); err != nil {
		w.err = err
		return err
	}
	w.records++
	w.bytes += int64(8 + len(w.scratch))
	if w.mode == SyncAlways {
		return w.sync()
	}
	return nil
}

// sync flushes buffered frames and, unless SyncOff, fsyncs. This is the
// group-commit point: an update is acknowledged only after its WAL frames
// are on disk. The fsync is timed into rdfa_store_fsync_seconds — a slow
// device shows up there before it shows up as request latency.
func (w *wal) sync() error {
	if w.err != nil {
		return w.err
	}
	if err := w.w.Flush(); err != nil {
		w.err = err
		return err
	}
	if w.mode == SyncOff {
		return nil
	}
	start := time.Now()
	err := w.f.Sync()
	fsyncSeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		w.err = err
		return err
	}
	return nil
}

func (w *wal) close() error {
	flushErr := w.sync()
	closeErr := w.f.Close()
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}

// consolidateWALs rewrites the full replayed tail into one fresh log when a
// crash mid-checkpoint left several logs behind, none of which holds every
// surviving record on its own. The new log is written to a temp file and
// renamed into place so the old logs remain the durable copy until the new
// one is complete; only then are they removed.
func consolidateWALs(dir string, epoch uint64, mode SyncMode, tail []record, oldPaths []string) (*wal, error) {
	tmpPath := walPath(dir, epoch) + ".tmp"
	nw, err := createWALFile(tmpPath, epoch, mode)
	if err != nil {
		return nil, err
	}
	for _, rec := range tail {
		if err := nw.append(rec); err != nil {
			nw.close()
			os.Remove(tmpPath)
			return nil, err
		}
	}
	if err := nw.close(); err != nil {
		os.Remove(tmpPath)
		return nil, err
	}
	path := walPath(dir, epoch)
	if err := os.Rename(tmpPath, path); err != nil {
		os.Remove(tmpPath)
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		return nil, err
	}
	for _, old := range oldPaths {
		if old != path {
			os.Remove(old)
		}
	}
	if err := syncDir(dir); err != nil {
		return nil, err
	}
	return openWALForAppend(path, mode)
}

// replayWAL reads every intact record of the log at path and truncates the
// file after the last good frame, discarding a torn tail left by a crash.
// It returns the base epoch from the header, the surviving records, and how
// many bytes were cut.
func replayWAL(path string) (epoch uint64, recs []record, discarded int64, err error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return 0, nil, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, nil, 0, err
	}
	size := fi.Size()
	br := bufio.NewReaderSize(f, 256<<10)
	var hdr [walHeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, nil, 0, fmt.Errorf("store: %s: reading WAL header: %w", path, err)
	}
	if string(hdr[:4]) != walMagic {
		return 0, nil, 0, fmt.Errorf("store: %s is not a WAL file (magic %q)", path, hdr[:4])
	}
	if hdr[4] != walVersion {
		return 0, nil, 0, fmt.Errorf("store: %s: unsupported WAL version %d", path, hdr[4])
	}
	epoch = binary.BigEndian.Uint64(hdr[5:])
	good := int64(walHeaderSize)
	for {
		var frame [8]byte
		if _, err := io.ReadFull(br, frame[:]); err != nil {
			break // clean EOF or torn frame header — stop either way
		}
		length := binary.BigEndian.Uint32(frame[:4])
		sum := binary.BigEndian.Uint32(frame[4:])
		if length > maxWALFrame {
			break
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(br, payload); err != nil {
			break
		}
		if crc32.ChecksumIEEE(payload) != sum {
			break
		}
		rec, decErr := decodeRecord(payload)
		if decErr != nil {
			break
		}
		recs = append(recs, rec)
		good += int64(8 + len(payload))
	}
	if good < size {
		discarded = size - good
		if err := f.Truncate(good); err != nil {
			return 0, nil, 0, fmt.Errorf("store: %s: truncating torn WAL tail: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			return 0, nil, 0, err
		}
	}
	return epoch, recs, discarded, nil
}
