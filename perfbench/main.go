// Command perfbench is the repository's benchmark: it builds one of three
// workloads against the simulator through its public packages, drives it
// to a fixed virtual horizon for a fixed host-time budget, checks the
// simulated results against pinned digests and conservation invariants,
// and prints its metrics. The simulator is deterministic, so the
// benchmark measures host cost (time, CPU, allocations, memory) and
// requires every simulated statistic to stay byte-identical.
//
//	bash perfbench/run.sh --workload fleet --seed 1 --seconds 35 --trace 0
//
// With --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer ledger from a profiled run. See
// README.md for why each workload exists and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"

	"switchflow/internal/harness"
)

// runOptions configure one construction of a workload.
type runOptions struct {
	variant int  // input variant, from the seed
	traced  bool // attach the counting probes of a traced run
	short   bool // self-test horizon
}

// system is one constructed workload instance.
type system interface {
	// run drives the system to its horizon, timing every client call.
	run(st *stepTimer)
	// check reads the simulated results back through public surfaces.
	check() outcome
}

// outcome is what one repetition produced, read after the horizon.
type outcome struct {
	digest   string
	checks   int      // invariants and client calls checked
	failures []string // the ones that failed
	counts   map[string]float64
	events   uint64   // engine events fired; 0 where not observable
	detail   []string // workload-specific ledger lines
}

func (o *outcome) expect(ok bool, format string, args ...any) {
	o.checks++
	if !ok {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

type workloadDef struct {
	name  string
	setup func(runOptions) (system, error)
	// seedFree workloads take no random inputs; the seed only orders
	// their runs, so one digest covers every variant.
	seedFree bool
}

var workloads = []workloadDef{
	{name: "fleet", setup: setupFleet},
	{name: "control", setup: setupControl},
	{name: "paper", setup: setupPaper, seedFree: true},
}

// variants is how many distinct inputs the seeds map to: seed mod
// variants picks one, and each has a pinned expected digest.
const variants = 16

// metricDef names one metric and its unit, as BENCHMARK.json lists them.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"allocs_m", "M"},
	{"heap_p90_mb", "MB"},
	{"step_p50_ms", "ms"},
	{"step_p90_ms", "ms"},
}

// countNames are the work counts a traced run reports, read from public
// surfaces; a count a workload cannot observe reads 0.
var countNames = []string{
	"sim.events", "shard.imbalance_max_mean", "device.kernels", "executor.launches",
	"core.preempts", "core.resumes", "core.migrations", "core.gang_preempts", "core.allreduces",
	"workload.offered", "workload.shed_ratio", "workload.mean_batch",
	"cluster.routed", "cluster.scale_events",
	"obs.events", "obs.dropped", "control.metrics_bytes", "runtime.gc_cycles",
}

func perLayer() []metricDef {
	var defs []metricDef
	for _, l := range ledgerLayers {
		defs = append(defs, metricDef{l + ".cpu_share", "%"}, metricDef{l + ".alloc_share", "%"})
		if l != "gc" {
			defs = append(defs, metricDef{l + ".allocs_per_event", "allocs/event"})
		}
	}
	for _, c := range countNames {
		unit := "count"
		switch c {
		case "shard.imbalance_max_mean", "workload.shed_ratio", "workload.mean_batch":
			unit = "ratio"
		case "control.metrics_bytes":
			unit = "B"
		}
		defs = append(defs, metricDef{c, unit})
	}
	return append(defs, metricDef{"trace.overhead_pct", "%"})
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload: fleet, control or paper")
	seed := flag.Int64("seed", 0, "input seed")
	seconds := flag.Int("seconds", 30, "host seconds to measure for")
	trace := flag.Int("trace", 0, "1 for the profiled per-layer run")
	root := flag.String("root", ".", "repository root (for the host block)")
	child := flag.Bool("child", false, "run one repetition and print its record (used by the parent process)")
	writeDigests := flag.String("write-digests", "", "recompute every expected digest into this file and exit")
	flag.Parse()

	harness.SetParallelism(runtime.NumCPU())
	if *writeDigests != "" {
		if err := regenerateDigests(*writeDigests); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload fleet|control|paper, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	o := runOptions{variant: int(uint64(*seed) % variants)}
	if *child {
		rec, err := runChild(w, o, *trace == 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		out, _ := json.Marshal(rec)
		fmt.Println(string(out))
		return
	}

	hostJSON, _ := json.Marshal(map[string]any{"host": host(*root), "workload": w.name, "seed": *seed, "variant": o.variant})
	fmt.Println(string(hostJSON))
	spawn := func(traced bool) (repRecord, error) {
		return spawnChild(w.name, *seed, traced)
	}
	res, err := measure(w, *trace == 1, time.Duration(*seconds)*time.Second, spawn)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
}

// spawnChild runs one repetition in a fresh process of this binary and
// waits for it. Each repetition gets its own process because the host's
// speed for a process is steady within the process but differs between
// processes: the median over several processes is far steadier than over
// repetitions of one.
func spawnChild(workload string, seed int64, traced bool) (repRecord, error) {
	self, err := os.Executable()
	if err != nil {
		return repRecord{}, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "--child", "--workload", workload,
		"--seed", strconv.FormatInt(seed, 10), "--trace", trace)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return repRecord{}, fmt.Errorf("child repetition: %w", err)
	}
	var rec repRecord
	if err := json.Unmarshal(out, &rec); err != nil {
		return repRecord{}, fmt.Errorf("child repetition record: %w", err)
	}
	return rec, nil
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
