package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// measure spawns repetitions until the next one would overrun the budget
// (at least one) and reports the end-to-end metrics, or with traced set
// one untraced repetition for reference followed by profiled ones and the
// per-layer ledger.
func measure(w workloadDef, traced bool, budget time.Duration, spawn func(traced bool) (repRecord, error)) (result, error) {
	elapsed := stopwatch()
	var base *repRecord
	if traced {
		rec, err := spawn(false)
		if err != nil {
			return result{}, err
		}
		base = &rec
	}
	var recs []repRecord
	for {
		t := stopwatch()
		rec, err := spawn(traced)
		if err != nil {
			return result{}, err
		}
		recs = append(recs, rec)
		if elapsed()+t() > budget {
			break
		}
	}
	all := recs
	if base != nil {
		all = append([]repRecord{*base}, recs...)
	}
	res := result{Metrics: map[string]metricValue{}}
	for _, r := range all {
		res.Attempted += r.Checks
		res.Failed += len(r.Failures)
		for _, f := range r.Failures {
			fmt.Fprintln(os.Stderr, "perfbench: FAILED:", f)
		}
	}
	if traced {
		ledger(w, *base, recs, &res)
	} else {
		endToEndMetrics(w, recs, &res)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// endToEndMetrics reports each metric as the median over repetitions,
// printing its quartiles and sample count; a timing of client calls is
// the median over repetitions of each repetition's own percentile. Host
// times are scaled by each repetition's slowdown to the reference speed
// (see calibrator); the ledger prints the raw medians beside them.
func endToEndMetrics(w workloadDef, recs []repRecord, res *result) {
	samples, raw := map[string][]float64{}, map[string][]float64{}
	var slowdowns []float64
	steps := 0
	for _, r := range recs {
		times := map[string]float64{
			"wall_s":      r.Wall,
			"setup_s":     median(r.Setups),
			"cpu_s":       r.CPU,
			"step_p50_ms": quantile(r.Steps, 0.5),
			"step_p90_ms": quantile(r.Steps, 0.9),
		}
		for _, name := range sortedKeys(times) {
			raw[name] = append(raw[name], times[name])
			samples[name] = append(samples[name], times[name]/r.Slowdown)
		}
		samples["allocs_m"] = append(samples["allocs_m"], float64(r.Allocs)/1e6)
		samples["heap_p90_mb"] = append(samples["heap_p90_mb"], r.HeapP90/1e6)
		slowdowns = append(slowdowns, r.Slowdown)
		steps += len(r.Steps)
	}
	fmt.Printf("# %s: %d repetitions (one process each), %d client steps, %d setups per repetition\n",
		w.name, len(recs), steps, setupsPerRep)
	fmt.Printf("# host slowdown against the reference speed: median %.3f %.4g; times below are scaled by it, raw medians in []\n",
		median(slowdowns), slowdowns)
	for _, m := range endToEnd {
		xs := samples[m.name]
		v := median(xs)
		line := fmt.Sprintf("%-14s %12.4f %-3s median; p25 %.4f p75 %.4f (n=%d) %.4g",
			m.name, v, m.unit, quantile(xs, 0.25), quantile(xs, 0.75), len(xs), xs)
		if r, ok := raw[m.name]; ok {
			line += fmt.Sprintf(" [raw %.4f]", median(r))
		}
		fmt.Println(line)
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	last := recs[len(recs)-1]
	fmt.Printf("heap_max_mb    %12.4f MB  largest live heap after a GC, last repetition (%d GC cycles)\n",
		last.HeapMax/1e6, last.HeapGCs)
	if last.Events > 0 {
		fmt.Printf("events_per_s   %12.0f ev/s (engine events %d)\n",
			float64(last.Events)/median(samples["wall_s"]), last.Events)
		fmt.Printf("allocs_per_event %10.3f\n", median(samples["allocs_m"])*1e6/float64(last.Events))
	}
	for _, line := range recs[len(recs)-1].Detail {
		fmt.Println(line)
	}
}

// ledger reports the per-layer metrics of the profiled repetitions: CPU
// and allocation shares by layer, allocations per engine event, the work
// counts, and the tracing overhead against the untraced reference.
func ledger(w workloadDef, base repRecord, traced []repRecord, res *result) {
	cpu, allocs := map[string]float64{}, map[string]float64{}
	var walls []float64
	var mallocs, gcs float64
	for _, r := range traced {
		for _, l := range sortedKeys(r.CPUByModule) {
			cpu[l] += r.CPUByModule[l] / float64(len(traced))
		}
		for _, l := range sortedKeys(r.AllocsByModule) {
			allocs[l] += r.AllocsByModule[l]
		}
		walls = append(walls, r.Wall)
		mallocs += float64(r.Allocs) / float64(len(traced))
		gcs += float64(r.GCs) / float64(len(traced))
	}
	cpuShare, allocShare := shares(cpu), shares(allocs)
	foldedCPU, foldedAllocs := foldLayers(cpuShare), foldLayers(allocShare)
	sum := 0.0
	for _, l := range sortedKeys(foldedCPU) {
		sum += foldedCPU[l]
	}
	res.Attempted++
	if math.Abs(sum-100) > 1e-6 {
		res.Failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: cpu shares sum to %.9f%%\n", sum)
	}

	last := traced[len(traced)-1]
	overhead := 100 * (median(walls) - base.Wall) / base.Wall
	fmt.Printf("# %s ledger: %d profiled repetition(s); untraced wall %.3f s, traced wall %.3f s, tracing overhead %+.1f%%\n",
		w.name, len(traced), base.Wall, median(walls), overhead)
	printLedger(cpuShare, allocShare, last.Events, mallocs, cpu)
	for _, line := range last.Detail {
		fmt.Println(line)
	}

	for _, m := range perLayer() {
		layer, kind, _ := strings.Cut(m.name, ".")
		var v float64
		switch {
		case m.name == "trace.overhead_pct":
			v = overhead
		case m.name == "runtime.gc_cycles":
			v = gcs
		case kind == "cpu_share":
			v = foldedCPU[layer]
		case kind == "alloc_share":
			v = foldedAllocs[layer]
		case kind == "allocs_per_event":
			if last.Events > 0 {
				v = mallocs * foldedAllocs[layer] / 100 / float64(last.Events)
			}
		default:
			v = last.Counts[m.name]
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
}

// shares converts per-layer totals to percentages of their sum.
func shares(by map[string]float64) map[string]float64 {
	total := 0.0
	for _, l := range sortedKeys(by) {
		total += by[l]
	}
	out := make(map[string]float64, len(by))
	for l, v := range by {
		if total > 0 {
			out[l] = 100 * v / total
		}
	}
	return out
}

// printLedger prints every module's shares, largest CPU share first, with
// host nanoseconds and allocations per engine event where the workload
// exposes its engine events.
func printLedger(cpuShare, allocShare map[string]float64, events uint64, allocsPerRep float64, cpuNanosPerRep map[string]float64) {
	names := make([]string, 0, len(cpuShare))
	for l := range cpuShare {
		names = append(names, l)
	}
	for l := range allocShare {
		if _, ok := cpuShare[l]; !ok {
			names = append(names, l)
		}
	}
	sort.Slice(names, func(i, j int) bool {
		if cpuShare[names[i]] != cpuShare[names[j]] {
			return cpuShare[names[i]] > cpuShare[names[j]]
		}
		return names[i] < names[j]
	})
	fmt.Printf("%-12s %9s %9s %12s %16s\n", "layer", "cpu %", "alloc %", "ns/event", "allocs/event")
	for _, l := range names {
		line := fmt.Sprintf("%-12s %9.2f %9.2f", l, cpuShare[l], allocShare[l])
		if events > 0 {
			line += fmt.Sprintf(" %12.1f %16.3f", cpuNanosPerRep[l]/float64(events),
				allocsPerRep*allocShare[l]/100/float64(events))
		}
		fmt.Println(line)
	}
}
