package main

import (
	"encoding/json"
	"fmt"
)

// metricSpec declares one metric the way BENCHMARK.json lists it. Bound is
// the share of the parent's median by which an end-to-end metric may get
// worse before a change counts as a regression; per-layer metrics have none.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func bounded(name, unit, better string, bound float64) metricSpec {
	return metricSpec{Name: name, Unit: unit, Better: better, Bound: &bound}
}

// endToEndSpec lists the end-to-end metrics the benchmark gates on: the ones
// that repeat. The bounds come from the calibration runs in CALIBRATION.md:
// at least three times the widest interquartile spread any workload showed,
// and never below the floor the issue set for that kind of metric. setup_s
// is a timing and as noisy as the others, but the contract requires it, at
// the largest bound it allows.
var endToEndSpec = []metricSpec{
	bounded("setup_s", "s", "lower", 0.25),
	bounded("allocs_per_op", "count", "lower", 0.03),
	bounded("alloc_mb_per_op", "MB", "lower", 0.03),
	bounded("heap_mb", "MB", "lower", 0.15),
}

// timingSpec lists the workload-wide timings. They are what the paper's user
// feels, and a -trace 0 run prints them, but they carry no bound: on this box
// the same code differs by 25-50 % between one minute and the next (see
// CALIBRATION.md), more than the 25 % a bound may be, so a gate on them would
// fail at random. A timing claim needs paired, alternating runs. The traced
// run reports them as e2e.* per-layer metrics.
var timingSpec = []metricSpec{
	{Name: "p50_ms", Unit: "ms", Better: "lower"},
	{Name: "p90_ms", Unit: "ms", Better: "lower"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
}

// runSeconds is the run length the driver asks for, and the one the
// workloads' round counts are sized to.
const runSeconds = 20

// printSpec prints BENCHMARK.json from the tables the program reports from,
// so the file cannot name a metric the program does not print.
func printSpec() error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	spec := struct {
		Command    []string     `json:"command"`
		Paths      []string     `json:"paths"`
		RunSeconds int          `json:"run_seconds"`
		Workloads  []wl         `json:"workloads"`
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []metricSpec `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEndSpec,
		PerLayer:   perLayer,
	}
	for _, w := range workloads(false) {
		spec.Workloads = append(spec.Workloads, wl{w.name, w.why})
	}
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
