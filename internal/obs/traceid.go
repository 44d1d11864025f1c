package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync/atomic"
)

// Trace-ID minting and context plumbing. IDs must be cheap enough to mint
// on every request (they sit on the HTTP hot path), unique within and
// across process restarts, and plain lowercase hex so they survive header
// and exposition-format round trips untouched.
//
// Format: 8 hex chars of per-process random prefix + 8 hex chars of an
// atomic counter — 16 chars total. The prefix is drawn once from
// crypto/rand at startup, so two processes (or two runs of one binary)
// do not collide; the counter makes every ID within a process distinct
// without a syscall per trace.

var (
	traceIDPrefix = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			// Degrade to a fixed prefix; uniqueness within the process
			// still holds via the counter.
			return "00000000"
		}
		return hex.EncodeToString(b[:])
	}()
	traceIDSeq atomic.Uint64
)

// NewTraceID mints a process-unique 16-char lowercase-hex trace ID.
func NewTraceID() string {
	n := traceIDSeq.Add(1)
	const digits = "0123456789abcdef"
	var buf [16]byte
	copy(buf[:8], traceIDPrefix)
	for i := 15; i >= 8; i-- {
		buf[i] = digits[n&0xf]
		n >>= 4
	}
	return string(buf[:])
}

// RequestIDs are the IDs the HTTP middleware accepted or minted for one
// request: its X-Request-Id and its X-Trace-Id. A request's context carries
// them as one value, so layers below the handler — core sessions,
// executors — adopt the IDs on the wire instead of minting their own.
type RequestIDs struct {
	Request, Trace string
}

type idsKey struct{}

// WithRequestIDs returns a context carrying ids.
func WithRequestIDs(ctx context.Context, ids *RequestIDs) context.Context {
	return context.WithValue(ctx, idsKey{}, ids)
}

// RequestIDsFrom returns the IDs ctx carries (zero when absent).
func RequestIDsFrom(ctx context.Context) RequestIDs {
	if ids, ok := ctx.Value(idsKey{}).(*RequestIDs); ok {
		return *ids
	}
	return RequestIDs{}
}
