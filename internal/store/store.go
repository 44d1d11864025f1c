package store

import (
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"rdfanalytics/internal/obs"
	"rdfanalytics/internal/rdf"
)

// Latency histograms for the store's three stall-prone operations. The
// families are registered at package init so scrapers always see them;
// checkpoint stalls and fsync outliers show up on /metrics and — via the
// spans recorded by CheckpointTraced — in retained traces.
var (
	fsyncSeconds      = obs.Default.Histogram("rdfa_store_fsync_seconds", nil)
	checkpointSeconds = obs.Default.Histogram("rdfa_store_checkpoint_seconds", nil)
	replaySeconds     = obs.Default.Histogram("rdfa_store_replay_seconds", nil)
)

// Options configures Open.
type Options struct {
	// Dir is the data directory; created if absent.
	Dir string
	// Sync is the WAL durability mode (default SyncBatch).
	Sync SyncMode
	// CheckpointEvery, when positive, starts a background goroutine that
	// compacts the WAL into a fresh segment at that interval (skipping
	// intervals with no new records).
	CheckpointEvery time.Duration
}

// Store binds an rdf.Graph to a data directory: every effective mutation of
// the graph is journaled to the WAL before it hits the in-memory indexes,
// checkpoints fold the log into immutable segment files, and Open rebuilds
// the exact pre-crash graph from segment + log. Lock ordering is strictly
// graph.mu → Store.mu (the journal hook runs under the graph write lock and
// takes s.mu; nothing holding s.mu ever calls a locking graph method).
type Store struct {
	dir  string
	mode SyncMode

	g *rdf.Graph

	// cpMu serializes Checkpoint end to end: it is reachable concurrently
	// from the HTTP trigger and the background loop, and two overlapping
	// runs could otherwise complete out of epoch order — installing the
	// older segment last and deleting the newer one, which loses every
	// record between the two epochs. Always acquired before mu, never
	// while holding it.
	cpMu sync.Mutex

	mu  sync.Mutex
	seg *Segment // nil until the first checkpoint
	wal *wal
	// tail holds the records journaled since the current segment's epoch —
	// exactly the WAL's surviving contents. Checkpoints carry the suffix
	// newer than their cut into the fresh WAL, and Open consolidates it into
	// one log after a crash mid-swap.
	tail []record

	// counters for Stats; guarded by mu.
	walRecordsTotal  int64
	walBytesTotal    int64
	checkpoints      int64
	checkpointErrors int64
	lastCheckpoint   time.Duration
	replayTime       time.Duration
	replayRecords    int
	replayDiscarded  int64
	// journalDropped counts mutations the WAL failed to journal while they
	// still applied in memory (the hook cannot abort the graph mutation).
	// While any such drop since the last checkpoint cut is outstanding,
	// diverged is true: the live graph is ahead of the WAL until a
	// successful checkpoint folds the full graph into a segment and
	// reconverges the on-disk state.
	journalDropped int64
	diverged       bool

	stop chan struct{}
	done chan struct{}
}

// Open loads (or initializes) the store in opts.Dir: the newest intact
// segment is decoded — once, straight into the live graph — every WAL with
// records newer than its epoch is replayed on top (torn tails truncated,
// stale records skipped), and the graph's journal hook is attached so all
// further mutations are logged.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("store: no data directory")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: opts.Dir, mode: opts.Sync}
	start := time.Now()

	segPaths, walPaths, err := listFiles(opts.Dir)
	if err != nil {
		return nil, err
	}
	// Newest loadable segment wins, but never silently: a file under its
	// final segment name was fully synced once (tmp+rename+dirsync), so a
	// load failure means on-disk corruption. Skipped segments are logged,
	// and falling back past one is only accepted when the surviving WALs
	// reach back to the chosen epoch (checked after replay below) — the
	// WALs created after the corrupt checkpoint only hold records above its
	// epoch, so without that coverage every record in between is gone and
	// Open must refuse rather than boot a silently partial graph.
	var skipped []string
	for i := len(segPaths) - 1; i >= 0; i-- {
		seg, g, err := loadSegment(segPaths[i])
		if err != nil {
			slog.Error("store: segment failed to load", "path", segPaths[i], "error", err)
			skipped = append(skipped, filepath.Base(segPaths[i]))
			continue
		}
		s.seg, s.g = seg, g
		break
	}
	var epoch uint64
	if s.seg != nil {
		epoch = s.seg.Epoch
	} else {
		s.g = rdf.NewGraph()
	}
	s.g.SetVersion(epoch)

	// Replay WALs in epoch order, applying only records strictly newer than
	// everything applied so far. Journaled versions are unique and strictly
	// increasing (one per effective mutation), so this filter makes replay
	// idempotent across every crash shape: records at or below the segment
	// epoch are inside the segment, and a crash mid-checkpoint — which
	// leaves the old WAL plus a fresh WAL holding copies of its newest
	// records — replays each mutation exactly once, in order.
	maxVersion := epoch
	covered := false // does some WAL reach back to the chosen epoch?
	for _, path := range walPaths {
		base, recs, discarded, err := replayWAL(path)
		if err != nil {
			return nil, err
		}
		if base <= epoch {
			covered = true
		}
		s.replayDiscarded += discarded
		for _, rec := range recs {
			if rec.version <= maxVersion {
				continue
			}
			applyRecord(s.g, rec)
			maxVersion = rec.version
			s.tail = append(s.tail, rec)
			s.replayRecords++
		}
	}
	if len(skipped) > 0 {
		// A segment newer than the one loaded could not be read. A WAL
		// based at (or below) the loaded epoch holds every record since it,
		// so replay just rebuilt the full state; without one there is an
		// unrecoverable gap between the loaded epoch and the corrupt
		// segment's, and refusing beats serving a partial graph.
		if !covered {
			return nil, fmt.Errorf("store: segment(s) %v failed to load and no WAL reaches back to epoch %d — records in the gap are unrecoverable (restore the segment file, or delete it to accept the loss)", skipped, epoch)
		}
		slog.Warn("store: recovered past unloadable segment(s) via older segment and WAL replay", "skipped", skipped, "epoch", epoch, "replayed", s.replayRecords)
	}
	// Restore a monotonic version counter: replayed mutations bumped the
	// graph's own counter from the epoch, but a skipped no-op (idempotent
	// suffix) would leave it behind the journaled high-water mark.
	if s.g.Version() < maxVersion {
		s.g.SetVersion(maxVersion)
	}

	// Pick the WAL to continue on. A single log (the normal case) is
	// appended to in place. Multiple logs mean a crash interrupted a
	// checkpoint's WAL swap: no single file holds the whole tail, so the
	// tail is consolidated into a fresh log (tmp + rename, so the old logs
	// stay authoritative until the new one is durable) before the old ones
	// are removed.
	switch {
	case len(walPaths) == 1:
		w, err := openWALForAppend(walPaths[0], opts.Sync)
		if err != nil {
			return nil, err
		}
		s.wal = w
	case len(walPaths) > 1:
		w, err := consolidateWALs(opts.Dir, epoch, opts.Sync, s.tail, walPaths)
		if err != nil {
			return nil, err
		}
		s.wal = w
	default:
		w, err := createWAL(opts.Dir, epoch, opts.Sync)
		if err != nil {
			return nil, err
		}
		s.wal = w
	}
	s.replayTime = time.Since(start)
	replaySeconds.Observe(s.replayTime.Seconds())

	s.g.SetJournal(s.journal)
	if opts.CheckpointEvery > 0 {
		s.stop = make(chan struct{})
		s.done = make(chan struct{})
		go s.checkpointLoop(opts.CheckpointEvery)
	}
	return s, nil
}

func applyRecord(g *rdf.Graph, rec record) {
	if rec.op == rdf.JournalAdd {
		g.Add(rec.t)
	} else {
		g.Remove(rec.t)
	}
}

func listFiles(dir string) (segs, wals []string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "segment-") && strings.HasSuffix(name, ".seg"):
			segs = append(segs, filepath.Join(dir, name))
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			wals = append(wals, filepath.Join(dir, name))
		case strings.HasSuffix(name, ".tmp"):
			// leftover from a crash mid-checkpoint; never installed
			os.Remove(filepath.Join(dir, name))
		}
	}
	// Hex-padded epochs make lexicographic order epoch order.
	sort.Strings(segs)
	sort.Strings(wals)
	return segs, wals, nil
}

// Graph returns the live graph the store journals for.
func (s *Store) Graph() *rdf.Graph { return s.g }

// Empty reports whether the store holds no data at all — a fresh directory
// awaiting Bootstrap.
func (s *Store) Empty() bool {
	// Lock order is graph.mu → Store.mu, so read the graph before taking
	// s.mu rather than under it.
	empty := s.g.Len() == 0
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seg == nil && len(s.tail) == 0 && empty
}

// journal is the rdf.Graph write-ahead hook. It runs under the graph write
// lock, before the mutation is applied, and must not call back into the
// graph.
func (s *Store) journal(op rdf.JournalOp, t rdf.Triple, version uint64) {
	rec := record{version: version, op: op, t: t}
	s.mu.Lock()
	defer s.mu.Unlock()
	before := s.wal.bytes
	if err := s.wal.append(rec); err != nil {
		// The error is sticky in the WAL; Sync (the ack barrier) will
		// surface it, so the update can't be acknowledged as durable. But
		// the in-memory mutation still applies (this hook cannot abort
		// it), so from here until a successful checkpoint the live graph
		// holds records the WAL is missing, and only the next segment — a
		// full image of the live graph — makes the dropped mutation
		// durable and reconverges state. Record that divergence so
		// operators see it (Stats.Diverged, the
		// rdfa_store_journal_dropped_total counter) instead of a silent gap.
		if !s.diverged {
			slog.Error("store: WAL append failed; live graph diverges from the journal until the next checkpoint", "error", err)
		}
		s.diverged = true
		s.journalDropped++
		return
	}
	s.tail = append(s.tail, rec)
	s.walRecordsTotal++
	// Cumulative across WAL swaps, so the exported counter is monotonic.
	s.walBytesTotal += s.wal.bytes - before
}

// Sync is the group-commit barrier: it flushes and (unless SyncOff) fsyncs
// the WAL. Callers acknowledge updates only after Sync returns nil.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wal.sync()
}

// Bootstrap adopts an already-populated graph (e.g. freshly parsed Turtle)
// as the store's graph, writes the first checkpoint, and attaches the
// journal. Only valid on an Empty store.
func (s *Store) Bootstrap(g *rdf.Graph) error {
	if !s.Empty() {
		return fmt.Errorf("store: Bootstrap on a non-empty store")
	}
	s.g.SetJournal(nil)
	s.g = g
	if err := s.Checkpoint(); err != nil {
		return err
	}
	s.g.SetJournal(s.journal)
	return nil
}

// Checkpoint compacts the store: stream a snapshot of the live graph
// (atomically with its version, under the graph read lock only) into a temp
// segment file, install that file as the segment at the snapshot's epoch,
// then swap in a fresh WAL carrying just the records newer than the epoch.
// Readers and writers keep running throughout; only the final swap holds
// s.mu. Checkpoints are serialized by cpMu — the HTTP trigger and the
// background loop may race, and overlapping runs could otherwise install
// segments out of epoch order, losing every record between the two epochs.
func (s *Store) Checkpoint() error { return s.CheckpointTraced(nil) }

// CheckpointTraced is Checkpoint recording its phases as child spans of
// parent (nil parent skips the spans; the duration histogram is observed
// either way): snapshot_encode is the snapshot streamed into the temp file
// under the graph read lock, with the bytes it wrote; segment_write is the
// header patch, CRC pass, fsync and rename; wal_swap the fresh WAL.
func (s *Store) CheckpointTraced(parent *obs.Span) error {
	s.cpMu.Lock()
	defer s.cpMu.Unlock()
	start := time.Now()
	err := s.checkpoint(parent)
	checkpointSeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		s.mu.Lock()
		s.checkpointErrors++
		s.mu.Unlock()
		return err
	}
	return nil
}

func (s *Store) checkpoint(parent *obs.Span) error {
	start := time.Now()
	s.mu.Lock()
	var curEpoch uint64
	hadSeg := s.seg != nil
	if hadSeg {
		curEpoch = s.seg.Epoch
	}
	// Drops counted before the snapshot cut belong to versions <= the cut
	// epoch, so the new segment contains them; if no further drop happens
	// before the swap, the store is reconverged.
	droppedAtCut := s.journalDropped
	s.mu.Unlock()

	// Nothing effective happened since the current segment was cut: skip.
	// Re-running at the same epoch would gain no compaction and would
	// O_TRUNC the live WAL file (same epoch → same path) under the old
	// handle. curEpoch cannot change concurrently — only checkpoints
	// install segments, and cpMu serializes them. Checked before the stream
	// so a clean checkpoint writes no temp file, and again on the epoch the
	// snapshot captured.
	if hadSeg && s.g.Version() <= curEpoch {
		parent.SetAttr("skipped", "no_new_records")
		return nil
	}
	snapSpan := parent.StartChild("snapshot_encode")
	sf, err := streamSegment(s.dir, s.g)
	if err == nil {
		snapSpan.SetAttr("bytes", sf.snapLen)
	}
	snapSpan.Finish()
	if err != nil {
		return err
	}
	if hadSeg && sf.epoch <= curEpoch {
		sf.discard()
		parent.SetAttr("skipped", "no_new_records")
		return nil
	}
	segSpan := parent.StartChild("segment_write")
	seg, err := sf.install()
	segSpan.Finish()
	if err != nil {
		return err
	}

	swapSpan := parent.StartChild("wal_swap")
	defer swapSpan.Finish()
	s.mu.Lock()
	defer s.mu.Unlock()
	// cpMu makes an epoch regression impossible; refuse the install anyway
	// rather than ever swap a newer segment out for an older one.
	if s.seg != nil && seg.Epoch <= s.seg.Epoch {
		if seg.Path != s.seg.Path {
			os.Remove(seg.Path)
		}
		return fmt.Errorf("store: refusing to install segment at epoch %d over current epoch %d", seg.Epoch, s.seg.Epoch)
	}
	// Records newer than the epoch arrived after the snapshot was cut;
	// they survive into the fresh WAL. Everything else is inside the
	// segment now.
	epoch := seg.Epoch
	var survivors []record
	for _, rec := range s.tail {
		if rec.version > epoch {
			survivors = append(survivors, rec)
		}
	}
	// Durability ordering: the old WAL is synced before being retired, so
	// no acknowledged record is ever only in volatile buffers while its
	// file is replaced. A WAL already broken by a sticky I/O error can't
	// sync — but everything it holds at or below the epoch is inside the
	// just-built segment and the survivors are re-appended from memory, so
	// completing the swap is exactly what restores durability; abandoning
	// it would pin the store to the broken log forever.
	if err := s.wal.sync(); err != nil {
		slog.Warn("store: retiring a WAL that failed to sync; the new segment supersedes its records", "error", err)
	}
	nw, err := createWAL(s.dir, epoch, s.mode)
	if err != nil {
		return err
	}
	for _, rec := range survivors {
		if err := nw.append(rec); err != nil {
			nw.close()
			os.Remove(nw.path)
			return err
		}
	}
	if err := nw.sync(); err != nil {
		nw.close()
		os.Remove(nw.path)
		return err
	}
	old := s.wal
	oldSeg := s.seg
	s.wal = nw
	s.seg = seg
	s.tail = survivors
	old.close()
	if old.path != nw.path {
		os.Remove(old.path)
	}
	if oldSeg != nil && oldSeg.Path != seg.Path {
		os.Remove(oldSeg.Path)
	}
	if s.journalDropped == droppedAtCut {
		// Every dropped record predates the cut and is inside the new
		// segment; tail, WAL and graph agree again.
		s.diverged = false
	}
	s.checkpoints++
	s.lastCheckpoint = time.Since(start)
	return nil
}

func (s *Store) checkpointLoop(every time.Duration) {
	defer close(s.done)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.mu.Lock()
			// diverged counts as dirty: the tail is empty of the dropped
			// records, and only a checkpoint makes them durable again.
			dirty := len(s.tail) > 0 || s.seg == nil || s.diverged
			s.mu.Unlock()
			if dirty {
				if err := s.Checkpoint(); err != nil {
					// Surfaced, not swallowed: a persistently failing
					// checkpoint (disk full, …) otherwise grows the WAL
					// without bound with no operator signal. The error
					// also increments Stats.CheckpointErrors
					// (rdfa_store_checkpoint_errors_total).
					slog.Error("store: background checkpoint failed; retrying next interval", "error", err)
				}
			}
		}
	}
}

// Close stops the background checkpointer, syncs and closes the WAL. The
// graph stays usable in memory but is no longer journaled.
func (s *Store) Close() error {
	if s.stop != nil {
		close(s.stop)
		<-s.done
		s.stop = nil
	}
	s.g.SetJournal(nil)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wal.close()
}

// Stats is a point-in-time view of the store for metrics export.
type Stats struct {
	Epoch            uint64
	Segments         int
	SegmentTriples   int
	TailRecords      int
	WALRecordsTotal  int64
	WALBytesTotal    int64
	Checkpoints      int64
	CheckpointErrors int64
	LastCheckpoint   time.Duration
	ReplayTime       time.Duration
	ReplayRecords    int
	ReplayDiscarded  int64
	// JournalDropped counts mutations the WAL failed to journal; Diverged
	// is true while any of them is not yet covered by a checkpoint: the
	// live graph is ahead of the WAL (a crash now would lose them) until
	// the next checkpoint.
	JournalDropped int64
	Diverged       bool
}

func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		TailRecords:      len(s.tail),
		WALRecordsTotal:  s.walRecordsTotal,
		WALBytesTotal:    s.walBytesTotal,
		Checkpoints:      s.checkpoints,
		CheckpointErrors: s.checkpointErrors,
		LastCheckpoint:   s.lastCheckpoint,
		ReplayTime:       s.replayTime,
		ReplayRecords:    s.replayRecords,
		ReplayDiscarded:  s.replayDiscarded,
		JournalDropped:   s.journalDropped,
		Diverged:         s.diverged,
	}
	if s.seg != nil {
		st.Epoch = s.seg.Epoch
		st.Segments = 1
		st.SegmentTriples = s.seg.Triples
	}
	return st
}
