package server

import (
	"errors"
	"net/http"
	"time"

	"rdfanalytics/internal/obs"
	"rdfanalytics/internal/sparql"
	"rdfanalytics/internal/store"
)

// Durable-store surface of the server: the manual checkpoint trigger and
// the rdfa_store_* metric family. Both exist only when Config.Store is set.

// handleCheckpoint compacts the WAL into a fresh segment on demand
// (operators call it before planned restarts to make the next replay
// near-empty). Answers the resulting store stats. The phases of the
// checkpoint are recorded as spans — snapshot_encode (the snapshot streamed
// into the segment's temp file under the graph read lock, its size in
// bytes), segment_write (header patch, CRC pass, fsync, rename) and
// wal_swap — and the checkpoint recorded like any operation, so a slow one
// is in the operations log: the workload view, the slow-query log and
// /api/traces.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	st := s.cfg.Store
	if st == nil {
		httpError(w, http.StatusConflict, errors.New("server is running without a durable store (-data-dir)"))
		return
	}
	start := time.Now()
	rec := opRecord(r, "checkpoint")
	rec.Shape, rec.FingerprintID = "checkpoint", sparql.FingerprintID("checkpoint")
	err := s.operation("checkpoint", rec, func(rec *obs.QueryRecord) (*sparql.Profile, error) {
		return nil, st.CheckpointTraced(rec.Trace.Root())
	})
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	stats := st.Stats()
	writeJSON(w, map[string]any{
		"epoch":           stats.Epoch,
		"segmentTriples":  stats.SegmentTriples,
		"tailRecords":     stats.TailRecords,
		"durationSeconds": time.Since(start).Seconds(),
	})
}

// registerStoreMetrics exports the durable-store gauges and counters on the
// default registry, following the repo conventions (counters end in
// _total, durations are _seconds).
func registerStoreMetrics(st *store.Store) {
	reg := obs.Default
	reg.CounterFunc("rdfa_store_wal_records_total", func() float64 {
		return float64(st.Stats().WALRecordsTotal)
	})
	reg.CounterFunc("rdfa_store_wal_bytes_total", func() float64 {
		return float64(st.Stats().WALBytesTotal)
	})
	reg.CounterFunc("rdfa_store_checkpoints_total", func() float64 {
		return float64(st.Stats().Checkpoints)
	})
	reg.CounterFunc("rdfa_store_checkpoint_errors_total", func() float64 {
		return float64(st.Stats().CheckpointErrors)
	})
	reg.CounterFunc("rdfa_store_journal_dropped_total", func() float64 {
		return float64(st.Stats().JournalDropped)
	})
	// 1 while the live graph holds mutations the WAL failed to journal
	// (cleared by the next successful checkpoint).
	reg.GaugeFunc("rdfa_store_diverged", func() float64 {
		if st.Stats().Diverged {
			return 1
		}
		return 0
	})
	reg.GaugeFunc("rdfa_store_segments", func() float64 {
		return float64(st.Stats().Segments)
	})
	reg.GaugeFunc("rdfa_store_segment_triples", func() float64 {
		return float64(st.Stats().SegmentTriples)
	})
	reg.GaugeFunc("rdfa_store_tail_records", func() float64 {
		return float64(st.Stats().TailRecords)
	})
	reg.GaugeFunc("rdfa_store_epoch", func() float64 {
		return float64(st.Stats().Epoch)
	})
	reg.GaugeFunc("rdfa_store_last_checkpoint_seconds", func() float64 {
		return st.Stats().LastCheckpoint.Seconds()
	})
	reg.GaugeFunc("rdfa_store_last_replay_seconds", func() float64 {
		return st.Stats().ReplayTime.Seconds()
	})
	reg.GaugeFunc("rdfa_store_replay_records", func() float64 {
		return float64(st.Stats().ReplayRecords)
	})
	reg.GaugeFunc("rdfa_store_replay_discarded_bytes", func() float64 {
		return float64(st.Stats().ReplayDiscarded)
	})
}
