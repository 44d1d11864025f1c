package obs

import (
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"
)

// Go runtime telemetry: heap, GC and scheduler statistics exposed as
// ordinary registry metrics (rdfa_go_*), so /metrics scrapes them like
// everything else and an external scraper keeps their history. ReadMemStats is
// not free, so one cached reader refreshes at most once per second and all
// the gauge funcs share it.

type memReader struct {
	mu sync.Mutex
	at time.Time
	ms runtime.MemStats
}

func (m *memReader) read() runtime.MemStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	if time.Since(m.at) > time.Second {
		runtime.ReadMemStats(&m.ms)
		m.at = time.Now()
	}
	return m.ms
}

var runtimeOnce sync.Once

// RegisterRuntimeMetrics registers the Go runtime gauges and counters on
// reg (nil means Default): heap in use, heap objects, cumulative
// allocations (alloc rate falls out of the sampler's delta derivation),
// total GC pause time, GC cycle count and live goroutines. Idempotent for
// the Default registry.
func RegisterRuntimeMetrics(reg *Registry) {
	if reg == nil || reg == Default {
		runtimeOnce.Do(func() { registerRuntime(Default) })
		return
	}
	registerRuntime(reg)
}

func registerRuntime(reg *Registry) {
	mr := &memReader{}
	reg.GaugeFunc("rdfa_go_heap_alloc_bytes", func() float64 {
		return float64(mr.read().HeapAlloc)
	})
	reg.GaugeFunc("rdfa_go_heap_sys_bytes", func() float64 {
		return float64(mr.read().HeapSys)
	})
	reg.GaugeFunc("rdfa_go_heap_objects", func() float64 {
		return float64(mr.read().HeapObjects)
	})
	reg.GaugeFunc("rdfa_go_next_gc_bytes", func() float64 {
		return float64(mr.read().NextGC)
	})
	reg.CounterFunc("rdfa_go_alloc_bytes_total", func() float64 {
		return float64(mr.read().TotalAlloc)
	})
	reg.CounterFunc("rdfa_go_gc_pause_seconds_total", func() float64 {
		return float64(mr.read().PauseTotalNs) / 1e9
	})
	reg.CounterFunc("rdfa_go_gc_cycles_total", func() float64 {
		return float64(mr.read().NumGC)
	})
	reg.GaugeFunc("rdfa_go_goroutines", func() float64 {
		return float64(runtime.NumGoroutine())
	})
}

// ---- build info ----

// Version returns the best version identity the binary carries: the VCS
// revision (plus "-dirty" when built from a modified tree) from the
// embedded build info, or "devel" when none is recorded.
func Version() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "devel"
	}
	rev, dirty := "", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "devel"
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

var buildInfoOnce sync.Once

// RegisterBuildInfo exposes the rdfa_build_info gauge (constant 1) whose
// labels carry the build identity: Go toolchain version, VCS revision and
// GOMAXPROCS. Idempotent for the Default registry.
func RegisterBuildInfo(reg *Registry) {
	if reg == nil || reg == Default {
		buildInfoOnce.Do(func() { registerBuildInfo(Default) })
		return
	}
	registerBuildInfo(reg)
}

func registerBuildInfo(reg *Registry) {
	reg.Gauge("rdfa_build_info",
		"go_version", runtime.Version(),
		"revision", Version(),
		"parallelism", strconv.Itoa(runtime.GOMAXPROCS(0)),
	).Set(1)
	reg.Help("rdfa_build_info", "Build identity; value is always 1.")
}
