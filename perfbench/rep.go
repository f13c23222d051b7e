package main

import (
	"fmt"
	"runtime"
)

// repRecord is one repetition as a child process reports it: the timed
// constructions, the run's host cost, its client-call latencies and
// what the result check found. Traced repetitions add the host-cost
// ledger by module.
type repRecord struct {
	Setups   []float64          `json:"setups_s"`
	Wall     float64            `json:"wall_s"`
	CPU      float64            `json:"cpu_s"`
	Allocs   uint64             `json:"allocs"`
	HeapP90  float64            `json:"heap_p90_bytes"`
	HeapMax  float64            `json:"heap_max_bytes"`
	HeapGCs  int                `json:"heap_samples"`
	GCs      uint64             `json:"gc_cycles"`
	Steps    []float64          `json:"steps_ms"`
	Checks   int                `json:"checks"`
	Failures []string           `json:"failures"`
	Events   uint64             `json:"events"`
	Counts   map[string]float64 `json:"counts"`
	Detail   []string           `json:"detail"`

	// Slowdown is the host's speed during an untraced repetition against
	// the reference speed (calibrator.slowdown).
	Slowdown float64 `json:"slowdown,omitempty"`

	CPUByModule    map[string]float64 `json:"cpu_ns_by_module,omitempty"`
	AllocsByModule map[string]float64 `json:"allocs_by_module,omitempty"`
}

// setupsPerRep is how many constructions a repetition times besides its
// own, so setup_s is a median of many even though a run holds only a few
// repetitions.
const setupsPerRep = 10

// runChild times setupsPerRep throwaway constructions, then constructs
// the workload once more, drives it to the horizon and checks the
// results. The heap is collected before each construction so they start
// alike. The first construction in the process pays one-time costs (code
// and memo warm-up) and is not timed. An untraced repetition times the
// reference loop before the constructions and through the run, for its
// slowdown. A traced repetition runs under the CPU profiler and diffs the
// allocation profile around the run.
func runChild(w workloadDef, o runOptions, traced bool) (repRecord, error) {
	var rec repRecord
	if _, err := w.setup(o); err != nil {
		return rec, fmt.Errorf("%s setup: %w", w.name, err)
	}
	var st stepTimer
	if !traced {
		// A first slice of the reference loop, so even a short run has
		// the host's speed, then slices through the run (stepTimer.span).
		st.cal = newCalibrator()
		st.cal.slice(calFirst)
	}
	for i := 0; i < setupsPerRep; i++ {
		runtime.GC()
		t := stopwatch()
		if _, err := w.setup(o); err != nil {
			return rec, fmt.Errorf("%s setup: %w", w.name, err)
		}
		rec.Setups = append(rec.Setups, t().Seconds())
	}
	o.traced = traced
	runtime.GC()
	t := stopwatch()
	sys, err := w.setup(o)
	if err != nil {
		return rec, fmt.Errorf("%s setup: %w", w.name, err)
	}
	rec.Setups = append(rec.Setups, t().Seconds())

	var before allocSnapshot
	if traced {
		// Publish the allocations made so far, set-up included, so the
		// diff after the run holds only the run's.
		runtime.GC()
		before = snapshotAllocs()
	}
	var heap heapSampler
	heap.start()
	allocs0, gcs0 := readUint64(metricAllocs), readUint64(metricGCCycles)
	var profile []byte
	if traced {
		profile, err = cpuProfile(func() { sys.run(&st) })
	} else {
		sys.run(&st)
	}
	rec.Wall, rec.CPU = st.wall.Seconds(), st.cpu.Seconds()
	if st.cal != nil {
		rec.Slowdown = st.cal.slowdown()
	}
	rec.Allocs = readUint64(metricAllocs) - allocs0
	rec.GCs = readUint64(metricGCCycles) - gcs0
	live := heap.stop()
	rec.HeapP90, rec.HeapMax, rec.HeapGCs = quantile(live, 0.9), quantile(live, 1), len(live)
	rec.Steps = millis(st.steps)
	if err != nil {
		return rec, err
	}

	out := sys.check()
	want, ok := expectedDigest(w, o)
	out.expect(ok && out.digest == want,
		"%s digest %s, expected %s (pinned: %v)", w.name, out.digest, want, ok)
	rec.Checks, rec.Failures = out.checks, out.failures
	rec.Events, rec.Counts, rec.Detail = out.events, out.counts, out.detail

	if traced {
		// A sampled allocation reaches the profile one full GC cycle after
		// it is made. The result check's allocations count as "other".
		runtime.GC()
		runtime.GC()
		rec.AllocsByModule = allocsByLayer(before, snapshotAllocs())
		if rec.CPUByModule, err = cpuByLayer(profile); err != nil {
			return rec, err
		}
	}
	return rec, nil
}
