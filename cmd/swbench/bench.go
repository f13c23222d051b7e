// Engine benchmark suite: the measured perf trajectory behind the
// ROADMAP's fleet-scale ambitions. `swbench -exp engine` times the
// timing-wheel event queue against the PR-1 heap reference (micro) and
// the sharded fleet against a serial one-worker run (macro), and emits a
// structured JSON artifact. `make bench-trajectory` normalizes that into
// the committed BENCH_*.json baseline; CI runs a smoke-sized variant and
// fails when a machine-portable ratio regresses more than 25% against
// the baseline.
//
// Regression gating deliberately compares ratios, not nanoseconds: raw
// ns/event varies with the host, but wheel-vs-heap speedup at a given
// depth and sharded-vs-serial speedup at a given fleet size are
// properties of the code.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"

	"switchflow/internal/cluster"
	"switchflow/internal/device"
	"switchflow/internal/harness"
	"switchflow/internal/models"
	"switchflow/internal/sim"
	"switchflow/internal/workload"
)

// benchSchema identifies the artifact format.
const benchSchema = "switchflow-bench/v1"

// benchReport is the JSON artifact. Field order is fixed, so the encoded
// bytes are stable apart from the measured numbers.
type benchReport struct {
	Schema string        `json:"schema"`
	Label  string        `json:"label"`
	Smoke  bool          `json:"smoke"`
	Host   benchHost     `json:"host"`
	Micro  []microResult `json:"micro"`
	Macro  []macroResult `json:"macro"`
}

// benchHost records the machine a report was measured on. Raw ns/event
// and wall times only compare between reports from like hosts.
type benchHost struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// microCells names the micro workloads, each measured on both engines
// and gated on its wheel-vs-heap speedup.
var microCells = []string{"schedule_step", "reschedule_storm", "kernel_cycle"}

// microResult is one engine micro-benchmark: a (workload, depth, engine)
// cell.
type microResult struct {
	Name        string  `json:"name"`   // one of microCells
	Depth       int     `json:"depth"`  // standing queue depth
	Engine      string  `json:"engine"` // wheel | heap
	NsPerEvent  float64 `json:"ns_per_event"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	EventsPerS  float64 `json:"events_per_sec"`
}

// macroResult is one fleet macro-benchmark: the sharded cluster advanced
// serially (one worker) or in parallel.
type macroResult struct {
	Name       string  `json:"name"` // fleet
	Nodes      int     `json:"nodes"`
	Mode       string  `json:"mode"` // serial | sharded
	WallSec    float64 `json:"wall_sec"`
	Events     uint64  `json:"events"`
	EventsPerS float64 `json:"events_per_sec"`
	// Barrier imbalance across the node shards: max/mean and min/mean of
	// per-node events fired. The sharded advance waits for the slowest
	// shard at every epoch barrier, so a high max/mean bounds the
	// parallel speedup no matter how many workers run. Deterministic —
	// identical in serial and sharded modes.
	ShardMaxMean float64 `json:"shard_max_mean"`
	ShardMinMean float64 `json:"shard_min_mean"`
	// AllocsPerEvent is heap allocations (the runtime's Mallocs delta
	// around the advance, all goroutines) per engine event fired.
	AllocsPerEvent float64 `json:"allocs_per_event"`
}

type benchOpts struct {
	smoke bool
	label string
	out   string
	check string
}

// engineBench runs the suite, prints a human table to stdout, writes the
// JSON artifact when requested, and compares against a baseline when
// requested. It returns an error on regression.
func engineBench(opts benchOpts) error {
	report := benchReport{Schema: benchSchema, Label: opts.label, Smoke: opts.smoke, Host: benchHost{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}}

	// Micro iterations stay full-size even in smoke mode: at depth 64k
	// the wheel needs ~1M iterations to amortize its cascades, and a
	// short loop would understate the speedup the gate compares against
	// the full-size baseline. The loops cost milliseconds; the smoke
	// reduction trims only the (much slower) fleet macro.
	depths := []int{256, 4096, 65536}
	const microIters = 2_000_000
	fleets := []int{2, 4, 16}
	horizon := 20 * time.Second
	if opts.smoke {
		fleets = []int{2}
		horizon = 5 * time.Second
	}

	header(os.Stdout, "Engine micro: wheel vs heap (ns/event, steady state)")
	fmt.Printf("%-18s %8s %8s %12s %12s %9s\n", "workload", "depth", "engine", "ns/event", "allocs/op", "Mev/s")
	for _, depth := range depths {
		for _, m := range microPair("schedule_step", depth, microIters, benchScheduleStepWheel, benchScheduleStepHeap) {
			report.Micro = append(report.Micro, m)
			printMicro(m)
		}
		for _, m := range microPair("reschedule_storm", depth, microIters, benchStormWheel, benchStormHeap) {
			report.Micro = append(report.Micro, m)
			printMicro(m)
		}
	}
	for _, depth := range []int{4, 64} {
		for _, m := range microPair("kernel_cycle", depth, microIters, benchKernelCycleWheel, benchKernelCycleHeap) {
			report.Micro = append(report.Micro, m)
			printMicro(m)
		}
	}

	header(os.Stdout, "Fleet macro: serial vs sharded epoch advance")
	fmt.Printf("%-8s %8s %10s %12s %12s %9s %9s %9s %10s\n",
		"name", "nodes", "mode", "wall s", "events", "kev/s", "max/mean", "min/mean", "allocs/ev")
	for _, nodes := range fleets {
		for _, mode := range []string{"serial", "sharded"} {
			workers := 1
			if mode == "sharded" {
				workers = runtime.GOMAXPROCS(0)
			}
			wall, fired, mallocs, maxMean, minMean := fleetMacro(nodes, workers, horizon)
			m := macroResult{
				Name: "fleet", Nodes: nodes, Mode: mode,
				WallSec: wall.Seconds(), Events: fired,
				EventsPerS:   float64(fired) / wall.Seconds(),
				ShardMaxMean: maxMean, ShardMinMean: minMean,
				AllocsPerEvent: float64(mallocs) / float64(fired),
			}
			report.Macro = append(report.Macro, m)
			fmt.Printf("%-8s %8d %10s %12.3f %12d %9.1f %9.3f %9.3f %10.3f\n",
				m.Name, m.Nodes, m.Mode, m.WallSec, m.Events, m.EventsPerS/1e3,
				m.ShardMaxMean, m.ShardMinMean, m.AllocsPerEvent)
		}
	}

	printSpeedups(report)

	if opts.out != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if err := os.WriteFile(opts.out, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "swbench: wrote %s\n", opts.out)
	}
	if opts.check != "" {
		base, err := readBenchReport(opts.check)
		if err != nil {
			return fmt.Errorf("baseline %s: %w", opts.check, err)
		}
		if err := checkRegression(report, base); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "swbench: no regression against %s\n", opts.check)
	}
	return nil
}

func printMicro(m microResult) {
	fmt.Printf("%-18s %8d %8s %12.2f %12.3f %9.2f\n",
		m.Name, m.Depth, m.Engine, m.NsPerEvent, m.AllocsPerOp, m.EventsPerS/1e6)
}

// microRounds is how many alternating wheel/heap rounds each micro cell
// runs. A cell reports each engine's median round, so a moment of host
// contention costs one round, not one engine's whole sample.
const microRounds = 3

// microPair measures one workload at one depth on both engines.
func microPair(name string, depth, iters int, wheel, heap func(depth, iters int) (time.Duration, float64)) []microResult {
	out := []microResult{
		{Name: name, Depth: depth, Engine: "wheel"},
		{Name: name, Depth: depth, Engine: "heap"},
	}
	var rounds [2][]float64
	for r := 0; r < microRounds; r++ {
		for i, fn := range []func(depth, iters int) (time.Duration, float64){wheel, heap} {
			elapsed, allocs := fn(depth, iters)
			rounds[i] = append(rounds[i], float64(elapsed.Nanoseconds())/float64(iters))
			out[i].AllocsPerOp = max(out[i].AllocsPerOp, allocs)
		}
	}
	for i := range out {
		slices.Sort(rounds[i])
		out[i].NsPerEvent = rounds[i][microRounds/2]
		out[i].EventsPerS = 1e9 / out[i].NsPerEvent
	}
	return out
}

// stopwatch returns the elapsed wall time since its creation. Wall time
// here is the measurement itself, never a simulation input.
func stopwatch() func() time.Duration {
	//swlint:allow simclock benchmark harness measures host wall time by definition
	start := time.Now()
	return func() time.Duration {
		//swlint:allow simclock benchmark harness measures host wall time by definition
		return time.Since(start)
	}
}

func benchScheduleStepWheel(depth, iters int) (time.Duration, float64) {
	e := sim.NewEngine()
	fn := func() {}
	d := time.Duration(depth)
	for i := time.Duration(0); i < d; i++ {
		e.Schedule(i, fn)
	}
	// Warm the structure through its first full drain-and-refill.
	for i := 0; i < depth; i++ {
		e.Schedule(e.Now()+d, fn)
		e.Step()
	}
	elapsed := stopwatch()
	for i := 0; i < iters; i++ {
		e.Schedule(e.Now()+d, fn)
		e.Step()
	}
	total := elapsed()
	allocs := testing.AllocsPerRun(1000, func() {
		e.Schedule(e.Now()+d, fn)
		e.Step()
	})
	return total, allocs
}

func benchScheduleStepHeap(depth, iters int) (time.Duration, float64) {
	e := sim.NewHeapEngine()
	fn := func() {}
	d := time.Duration(depth)
	for i := time.Duration(0); i < d; i++ {
		e.Schedule(i, fn)
	}
	for i := 0; i < depth; i++ {
		e.Schedule(e.Now()+d, fn)
		e.Step()
	}
	elapsed := stopwatch()
	for i := 0; i < iters; i++ {
		e.Schedule(e.Now()+d, fn)
		e.Step()
	}
	total := elapsed()
	allocs := testing.AllocsPerRun(1000, func() {
		e.Schedule(e.Now()+d, fn)
		e.Step()
	})
	return total, allocs
}

func benchStormWheel(depth, iters int) (time.Duration, float64) {
	e := sim.NewEngine()
	fn := func() {}
	d := time.Duration(depth)
	for i := time.Duration(0); i < d; i++ {
		e.Schedule(i, fn)
	}
	pending := make([]sim.Event, 0, 64)
	cycle := func() {
		if len(pending) == cap(pending) {
			for _, ev := range pending {
				ev.Cancel()
			}
			pending = pending[:0]
		}
		pending = append(pending, e.Schedule(e.Now()+d/2, fn))
		e.Schedule(e.Now()+d, fn)
		e.Step()
	}
	for i := 0; i < depth; i++ {
		cycle()
	}
	elapsed := stopwatch()
	for i := 0; i < iters; i++ {
		cycle()
	}
	total := elapsed()
	allocs := testing.AllocsPerRun(1000, cycle)
	return total, allocs
}

func benchStormHeap(depth, iters int) (time.Duration, float64) {
	e := sim.NewHeapEngine()
	fn := func() {}
	d := time.Duration(depth)
	for i := time.Duration(0); i < d; i++ {
		e.Schedule(i, fn)
	}
	pending := make([]sim.HeapEvent, 0, 64)
	cycle := func() {
		if len(pending) == cap(pending) {
			for _, ev := range pending {
				ev.Cancel()
			}
			pending = pending[:0]
		}
		pending = append(pending, e.Schedule(e.Now()+d/2, fn))
		e.Schedule(e.Now()+d, fn)
		e.Step()
	}
	for i := 0; i < depth; i++ {
		cycle()
	}
	elapsed := stopwatch()
	for i := 0; i < iters; i++ {
		cycle()
	}
	total := elapsed()
	allocs := testing.AllocsPerRun(1000, cycle)
	return total, allocs
}

// kernelDelays returns a deterministic stream of kernel-cycle delays:
// 96% uniform in [1µs, 8µs), 4% uniform in [65µs, 1ms).
func kernelDelays() func() time.Duration {
	x := uint64(0x9e3779b97f4a7c15)
	return func() time.Duration {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		r := time.Duration(x >> 8)
		if x%25 == 0 {
			return 65*time.Microsecond + r%(time.Millisecond-65*time.Microsecond)
		}
		return time.Microsecond + r%(7*time.Microsecond)
	}
}

// microQueue is what the kernel cycle needs of either engine.
type microQueue[E any] interface {
	Schedule(at time.Duration, fn func()) E
	Step() bool
	Now() time.Duration
}

// benchKernelCycle is the fleet's kernel path seen from the engine: depth
// events pending (a worker-done and a GPU-complete per kernel in flight),
// each fired event replaced by one a few microseconds out, with a slow
// tail of data-pipeline and arrival timers. The warm-up spans several
// tick windows, so the wheel is timed at the tick the delays settle it on.
func benchKernelCycle[E any](q microQueue[E], depth, iters int) (time.Duration, float64) {
	fn := func() {}
	delay := kernelDelays()
	for i := 0; i < depth; i++ {
		q.Schedule(delay(), fn)
	}
	cycle := func() {
		q.Schedule(q.Now()+delay(), fn)
		q.Step()
	}
	for i := 0; i < 8192; i++ {
		cycle()
	}
	elapsed := stopwatch()
	for i := 0; i < iters; i++ {
		cycle()
	}
	total := elapsed()
	allocs := testing.AllocsPerRun(1000, cycle)
	return total, allocs
}

func benchKernelCycleWheel(depth, iters int) (time.Duration, float64) {
	return benchKernelCycle[sim.Event](sim.NewEngine(), depth, iters)
}

func benchKernelCycleHeap(depth, iters int) (time.Duration, float64) {
	return benchKernelCycle[sim.HeapEvent](sim.NewHeapEngine(), depth, iters)
}

// fleetMacro advances a collocated training+serving fleet to the horizon
// with the given worker count and reports wall time, total engine events
// fired across the nodes, heap allocations made during the advance, and
// the per-shard barrier imbalance (max/mean and min/mean of per-node
// fired counts).
func fleetMacro(nodes, workers int, horizon time.Duration) (time.Duration, uint64, uint64, float64, float64) {
	prev := harness.SetParallelism(workers)
	defer harness.SetParallelism(prev)

	c := cluster.New(cluster.Collocate{}, nodes, device.ClassV100, device.ClassV100)
	trainModels := []string{"ResNet50", "VGG16", "InceptionV3", "DenseNet121"}
	serveModels := []string{"ResNet50", "MobileNetV2", "DenseNet121", "InceptionV3"}
	for i := 0; i < nodes*2; i++ {
		model := trainModels[i%len(trainModels)]
		c.Submit(time.Duration(i)*cluster.DefaultEpoch, workload.Config{
			Name: fmt.Sprintf("train-%d-%s", i, model), Model: mustModel(model), Batch: 32,
			Kind: workload.KindTraining, Priority: 1,
		})
	}
	for i := 0; i < nodes*3; i++ {
		model := serveModels[i%len(serveModels)]
		c.Submit(time.Duration(i)*cluster.DefaultEpoch, workload.Config{
			Name: fmt.Sprintf("serve-%d-%s", i, model), Model: mustModel(model), Batch: 1,
			Kind: workload.KindServing, Priority: 2,
			ArrivalEvery:    150 * time.Millisecond,
			PoissonArrivals: true,
			ArrivalSeed:     int64(100 + i),
			PerImageCPU:     10 * time.Millisecond,
		})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	elapsed := stopwatch()
	c.RunUntil(horizon)
	wall := elapsed()
	runtime.ReadMemStats(&after)
	var fired, max uint64
	min := ^uint64(0)
	for _, n := range c.Nodes() {
		f := n.Engine().Fired()
		fired += f
		if f > max {
			max = f
		}
		if f < min {
			min = f
		}
	}
	mean := float64(fired) / float64(len(c.Nodes()))
	return wall, fired, after.Mallocs - before.Mallocs, float64(max) / mean, float64(min) / mean
}

func mustModel(name string) *models.Spec {
	s, err := models.ByName(name)
	if err != nil {
		panic(err)
	}
	return s
}

// printSpeedups prints the machine-portable ratios the regression gate
// uses.
func printSpeedups(r benchReport) {
	header(os.Stdout, "Speedups (machine-portable regression metrics)")
	for _, name := range microCells {
		for _, depth := range microDepths(r, name) {
			if s, ok := microSpeedup(r, name, depth); ok {
				fmt.Printf("wheel vs heap  %-18s depth %6d: %5.2fx\n", name, depth, s)
			}
		}
	}
	for _, nodes := range macroFleets(r) {
		if s, ok := macroSpeedup(r, nodes); ok {
			fmt.Printf("sharded vs serial fleet, %d nodes: %5.2fx\n", nodes, s)
		}
	}
}

func microDepths(r benchReport, name string) []int {
	var out []int
	seen := map[int]bool{}
	for _, m := range r.Micro {
		if m.Name == name && !seen[m.Depth] {
			seen[m.Depth] = true
			out = append(out, m.Depth)
		}
	}
	return out
}

func macroFleets(r benchReport) []int {
	var out []int
	seen := map[int]bool{}
	for _, m := range r.Macro {
		if !seen[m.Nodes] {
			seen[m.Nodes] = true
			out = append(out, m.Nodes)
		}
	}
	return out
}

// microSpeedup returns heap-ns / wheel-ns for one cell: >1 means the
// wheel wins.
func microSpeedup(r benchReport, name string, depth int) (float64, bool) {
	var wheel, heap float64
	for _, m := range r.Micro {
		if m.Name != name || m.Depth != depth {
			continue
		}
		switch m.Engine {
		case "wheel":
			wheel = m.NsPerEvent
		case "heap":
			heap = m.NsPerEvent
		}
	}
	if wheel <= 0 || heap <= 0 {
		return 0, false
	}
	return heap / wheel, true
}

// macroSpeedup returns serial-wall / sharded-wall for one fleet size.
func macroSpeedup(r benchReport, nodes int) (float64, bool) {
	var serial, sharded float64
	for _, m := range r.Macro {
		if m.Name != "fleet" || m.Nodes != nodes {
			continue
		}
		switch m.Mode {
		case "serial":
			serial = m.WallSec
		case "sharded":
			sharded = m.WallSec
		}
	}
	if serial <= 0 || sharded <= 0 {
		return 0, false
	}
	return serial / sharded, true
}

// wheelAllocs returns the wheel's allocs/op for one cell.
func wheelAllocs(r benchReport, name string, depth int) (float64, bool) {
	for _, m := range r.Micro {
		if m.Name == name && m.Depth == depth && m.Engine == "wheel" {
			return m.AllocsPerOp, true
		}
	}
	return 0, false
}

func readBenchReport(path string) (benchReport, error) {
	var r benchReport
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, err
	}
	if r.Schema != benchSchema {
		return r, fmt.Errorf("schema %q, want %q", r.Schema, benchSchema)
	}
	return r, nil
}

// regressionTolerance is how much of the baseline ratio must survive: a
// current speedup below baseline*0.75 (>25% regression) fails.
const regressionTolerance = 0.75

// macroFloor is the absolute sharded-vs-serial floor: wall-clock ratios
// depend on the host's core count, so the macro gate only insists the
// sharded fleet is not dramatically slower than serial.
const macroFloor = 0.75

// macroAllocCeiling is the absolute allocations-per-event ceiling for
// every fleet macro cell. The kernel path (device, stream, worker pool,
// executor) recycles its slots, so what remains is per-iteration and
// per-request state; an allocation creeping back into the per-kernel
// cycle costs several per event and trips this long before wall time
// shows it. Absolute, not relative: older baselines lack the field.
const macroAllocCeiling = 0.5

// checkRegression compares cur against base on the portable ratios, and
// cur's macro cells against the absolute allocation ceiling. Ratio cells
// present in only one report are skipped, so the suite can grow without
// invalidating old baselines.
func checkRegression(cur, base benchReport) error {
	var failures []string
	for _, name := range microCells {
		for _, depth := range microDepths(base, name) {
			bs, ok1 := microSpeedup(base, name, depth)
			cs, ok2 := microSpeedup(cur, name, depth)
			if ok1 && ok2 && cs < bs*regressionTolerance {
				failures = append(failures, fmt.Sprintf(
					"%s depth %d: wheel speedup %.2fx < %.2fx (baseline %.2fx * %.2f)",
					name, depth, cs, bs*regressionTolerance, bs, regressionTolerance))
			}
			ba, ok1 := wheelAllocs(base, name, depth)
			ca, ok2 := wheelAllocs(cur, name, depth)
			if ok1 && ok2 && ca > ba+0.01 {
				failures = append(failures, fmt.Sprintf(
					"%s depth %d: wheel allocs/op %.3f > baseline %.3f",
					name, depth, ca, ba))
			}
		}
	}
	for _, nodes := range macroFleets(base) {
		if cs, ok := macroSpeedup(cur, nodes); ok && cs < macroFloor {
			failures = append(failures, fmt.Sprintf(
				"fleet %d nodes: sharded/serial %.2fx < floor %.2f", nodes, cs, macroFloor))
		}
	}
	for _, m := range cur.Macro {
		if m.AllocsPerEvent > macroAllocCeiling {
			failures = append(failures, fmt.Sprintf(
				"fleet %d nodes %s: %.3f allocs/event > ceiling %.2f",
				m.Nodes, m.Mode, m.AllocsPerEvent, macroAllocCeiling))
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "swbench: REGRESSION:", f)
		}
		return fmt.Errorf("%d benchmark regression(s)", len(failures))
	}
	return nil
}
