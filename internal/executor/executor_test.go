package executor

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"switchflow/internal/cost"
	"switchflow/internal/device"
	"switchflow/internal/graph"
	"switchflow/internal/models"
	"switchflow/internal/obs"
	"switchflow/internal/sim"
	"switchflow/internal/threadpool"
)

type fixture struct {
	eng     *sim.Engine
	machine *device.Machine
	pool    *threadpool.Pool
}

func newFixture(workers int) *fixture {
	eng := sim.NewEngine()
	return &fixture{
		eng:     eng,
		machine: device.NewMachine(eng, device.ClassXeonDual, device.ClassV100),
		pool:    threadpool.New(eng, "global", workers),
	}
}

func (f *fixture) gpuConfig(stream *device.Stream) Config {
	return Config{Pool: f.pool, CPUClass: f.machine.CPU, Stream: stream, Machine: f.machine}
}

func (f *fixture) cpuConfig() Config {
	return Config{Pool: f.pool, CPUClass: f.machine.CPU, Machine: f.machine}
}

// buildSubgraphs builds and partitions a model graph.
func buildSubgraphs(t *testing.T, spec *models.Spec, cfg models.BuildConfig) []*graph.Subgraph {
	t.Helper()
	g, err := spec.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	subs, err := graph.Partition(g)
	if err != nil {
		t.Fatal(err)
	}
	return subs
}

func TestRunCPUSubgraphCompletes(t *testing.T) {
	f := newFixture(4)
	g := graph.New("cpu")
	for i := 0; i < 4; i++ {
		g.AddNode(&graph.Node{
			Name: "shard", Op: graph.OpPreprocess,
			Device: device.CPUID, CPUTime: 10 * time.Millisecond,
		})
	}
	subs, err := graph.Partition(g)
	if err != nil {
		t.Fatal(err)
	}
	done := false
	run, err := Start(f.eng, subs[0], f.cpuConfig(), func() { done = true })
	if err != nil {
		t.Fatal(err)
	}
	f.eng.Run()
	if !done || !run.Done() {
		t.Fatal("CPU run did not complete")
	}
	// 4 independent shards on 4 workers run in parallel.
	if f.eng.Now() != 10*time.Millisecond {
		t.Fatalf("parallel shards took %v, want 10ms", f.eng.Now())
	}
}

func TestRunCPUShardsSerializeOnFewWorkers(t *testing.T) {
	f := newFixture(2)
	g := graph.New("cpu")
	for i := 0; i < 4; i++ {
		g.AddNode(&graph.Node{
			Name: "shard", Op: graph.OpPreprocess,
			Device: device.CPUID, CPUTime: 10 * time.Millisecond,
		})
	}
	subs, _ := graph.Partition(g)
	if _, err := Start(f.eng, subs[0], f.cpuConfig(), nil); err != nil {
		t.Fatal(err)
	}
	f.eng.Run()
	if f.eng.Now() != 20*time.Millisecond {
		t.Fatalf("4 shards on 2 workers took %v, want 20ms", f.eng.Now())
	}
}

func TestRunGPUChainSerializesOnStream(t *testing.T) {
	f := newFixture(8)
	g := graph.New("gpu")
	var prev *graph.Node
	const kernels = 5
	for i := 0; i < kernels; i++ {
		n := g.AddNode(&graph.Node{
			Name: "conv", Op: graph.OpConv2D,
			Device: device.GPUID(0), FLOPs: 5.6e9, // ~1 ms on V100
		})
		if prev != nil {
			g.Connect(prev, n)
		}
		prev = n
	}
	subs, _ := graph.Partition(g)
	stream := device.NewStream(f.machine.GPU(0))
	done := false
	if _, err := Start(f.eng, subs[0], f.gpuConfig(stream), func() { done = true }); err != nil {
		t.Fatal(err)
	}
	f.eng.Run()
	if !done {
		t.Fatal("GPU run did not complete")
	}
	// Chain of ~1ms kernels plus launch overheads: roughly 5ms total.
	if f.eng.Now() < 5*time.Millisecond || f.eng.Now() > 6*time.Millisecond {
		t.Fatalf("5-kernel chain took %v, want ~5ms", f.eng.Now())
	}
}

func TestRunSendTransfersTensor(t *testing.T) {
	f := newFixture(4)
	g := graph.New("xfer")
	pre := g.AddNode(&graph.Node{
		Name: "pre", Op: graph.OpPreprocess, Device: device.CPUID,
		CPUTime: time.Millisecond, OutputBytes: 113 << 20, // ~10ms at 11.3 GB/s
	})
	conv := g.AddNode(&graph.Node{Name: "conv", Op: graph.OpConv2D,
		Device: device.GPUID(0), FLOPs: 1e6})
	g.Connect(pre, conv)
	subs, _ := graph.Partition(g)
	cpuDone := false
	if _, err := Start(f.eng, subs[0], f.cpuConfig(), func() { cpuDone = true }); err != nil {
		t.Fatal(err)
	}
	f.eng.Run()
	if !cpuDone {
		t.Fatal("CPU stage incomplete")
	}
	// Preprocess 1ms + H2D ~10ms: the Send's transfer is on the stage's
	// critical path.
	if f.eng.Now() < 10*time.Millisecond {
		t.Fatalf("stage with H2D took %v, want >= 10ms", f.eng.Now())
	}
	if f.machine.HostToDevice(0).Transferred() != 113<<20 {
		t.Fatalf("H2D moved %d bytes", f.machine.HostToDevice(0).Transferred())
	}
}

func TestRunFullModelInferencePipeline(t *testing.T) {
	f := newFixture(32)
	spec, err := models.ByName("ResNet50")
	if err != nil {
		t.Fatal(err)
	}
	subs := buildSubgraphs(t, spec, models.BuildConfig{Batch: 16, Device: device.GPUID(0)})
	stream := device.NewStream(f.machine.GPU(0))
	// Stage 1: input.
	inputDone := false
	if _, err := Start(f.eng, subs[0], f.cpuConfig(), func() { inputDone = true }); err != nil {
		t.Fatal(err)
	}
	f.eng.Run()
	if !inputDone {
		t.Fatal("input stage incomplete")
	}
	inputEnd := f.eng.Now()
	// Stage 2: compute.
	computeDone := false
	if _, err := Start(f.eng, subs[1], f.gpuConfig(stream), func() { computeDone = true }); err != nil {
		t.Fatal(err)
	}
	f.eng.Run()
	if !computeDone {
		t.Fatal("compute stage incomplete")
	}
	computeTime := f.eng.Now() - inputEnd
	// BS=16 inference: ~16 x 7.7 GF at ~5.6 TF/s effective -> ~25ms, plus
	// memory-bound layers; accept a broad band.
	if computeTime < 10*time.Millisecond || computeTime > 150*time.Millisecond {
		t.Fatalf("ResNet50 BS=16 inference compute = %v, want 10-150ms", computeTime)
	}
	if got := f.machine.GPU(0).Launched(); got == 0 {
		t.Fatal("no kernels launched")
	}
}

func TestRunAbortStopsQueuedWork(t *testing.T) {
	f := newFixture(4)
	g := graph.New("abort")
	var prev *graph.Node
	for i := 0; i < 10; i++ {
		n := g.AddNode(&graph.Node{Name: "conv", Op: graph.OpConv2D,
			Device: device.GPUID(0), FLOPs: 5.6e9})
		if prev != nil {
			g.Connect(prev, n)
		}
		prev = n
	}
	subs, _ := graph.Partition(g)
	stream := device.NewStream(f.machine.GPU(0))
	completed := false
	run, err := Start(f.eng, subs[0], f.gpuConfig(stream), func() { completed = true })
	if err != nil {
		t.Fatal(err)
	}
	drained := false
	f.eng.Schedule(2500*time.Microsecond, func() {
		run.Abort(func() { drained = true })
	})
	f.eng.Run()
	if completed {
		t.Fatal("aborted run reported completion")
	}
	if !drained {
		t.Fatal("drain callback never fired")
	}
	if !run.Aborted() {
		t.Fatal("run not marked aborted")
	}
	// The chain would take ~10ms; abort at 2.5ms waits only for the
	// in-flight kernel (ends at ~3ms).
	if f.eng.Now() > 5*time.Millisecond {
		t.Fatalf("abort drained at %v, want well before chain end (10ms)", f.eng.Now())
	}
	done, total := run.Progress()
	if done >= total {
		t.Fatalf("progress %d/%d after abort", done, total)
	}
}

func TestRunAbortIsIdempotent(t *testing.T) {
	f := newFixture(2)
	g := graph.New("a")
	g.AddNode(&graph.Node{Name: "x", Op: graph.OpPreprocess,
		Device: device.CPUID, CPUTime: 10 * time.Millisecond})
	subs, _ := graph.Partition(g)
	run, err := Start(f.eng, subs[0], f.cpuConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	run.Abort(func() { calls++ })
	run.Abort(func() { calls++ })
	f.eng.Run()
	if calls != 2 {
		t.Fatalf("drain callbacks = %d, want 2 (idempotent abort still answers)", calls)
	}
}

func TestStartRequiresStreamForGPU(t *testing.T) {
	f := newFixture(2)
	g := graph.New("g")
	g.AddNode(&graph.Node{Name: "conv", Op: graph.OpConv2D, Device: device.GPUID(0), FLOPs: 1e6})
	subs, _ := graph.Partition(g)
	if _, err := Start(f.eng, subs[0], f.cpuConfig(), nil); err == nil {
		t.Fatal("Start accepted GPU subgraph without stream")
	}
}

func TestEmptySubgraphCompletesImmediately(t *testing.T) {
	f := newFixture(2)
	sub := &graph.Subgraph{Graph: graph.New("empty"), Device: device.CPUID}
	done := false
	if _, err := Start(f.eng, sub, f.cpuConfig(), func() { done = true }); err != nil {
		t.Fatal(err)
	}
	f.eng.Run()
	if !done {
		t.Fatal("empty subgraph never completed")
	}
}

// Property: under randomly timed suspend/resume cycles, a run still
// completes with every node executed exactly once.
func TestSuspendResumeProperty(t *testing.T) {
	prop := func(layerWidths []uint8, suspendAtUS []uint16) bool {
		f := newFixture(8)
		g := graph.New("prop")
		var prev []*graph.Node
		layers := 0
		for _, w := range layerWidths {
			if layers == 5 {
				break
			}
			width := int(w%3) + 1
			var cur []*graph.Node
			for i := 0; i < width; i++ {
				n := g.AddNode(&graph.Node{
					Name: "conv", Op: graph.OpConv2D,
					Device: device.GPUID(0), FLOPs: 1e9,
				})
				for _, p := range prev {
					g.Connect(p, n)
				}
				cur = append(cur, n)
			}
			prev = cur
			layers++
		}
		if g.Len() == 0 {
			return true
		}
		subs, err := graph.Partition(g)
		if err != nil {
			return false
		}
		stream := device.NewStream(f.machine.GPU(0))
		done := false
		run, err := Start(f.eng, subs[0], f.gpuConfig(stream), func() { done = true })
		if err != nil {
			return false
		}
		// Schedule suspend/resume cycles at arbitrary instants.
		for i, at := range suspendAtUS {
			if i == 4 {
				break
			}
			f.eng.Schedule(time.Duration(at)*time.Microsecond, func() {
				run.Suspend(func() {
					f.eng.After(time.Duration(at%97)*time.Microsecond, run.Resume)
				})
			})
		}
		f.eng.Run()
		completed, total := run.Progress()
		return done && completed == total
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: a suspended run retains monotone progress — resuming never
// loses completed nodes.
func TestSuspendKeepsProgress(t *testing.T) {
	f := newFixture(8)
	g := graph.New("chain")
	var prev *graph.Node
	for i := 0; i < 10; i++ {
		n := g.AddNode(&graph.Node{Name: "conv", Op: graph.OpConv2D,
			Device: device.GPUID(0), FLOPs: 5.6e9})
		if prev != nil {
			g.Connect(prev, n)
		}
		prev = n
	}
	subs, _ := graph.Partition(g)
	stream := device.NewStream(f.machine.GPU(0))
	done := false
	run, err := Start(f.eng, subs[0], f.gpuConfig(stream), func() { done = true })
	if err != nil {
		t.Fatal(err)
	}
	f.eng.Schedule(3500*time.Microsecond, func() {
		run.Suspend(nil)
	})
	f.eng.RunUntil(50 * time.Millisecond)
	mid, total := run.Progress()
	if mid == 0 || mid >= total {
		t.Fatalf("progress at suspension = %d/%d", mid, total)
	}
	run.Resume()
	f.eng.Run()
	after, _ := run.Progress()
	if after != total || !done {
		t.Fatalf("after resume: %d/%d done=%v", after, total, done)
	}
}

// layeredGPUGraph builds layers x width GPU convolutions, every node of a
// layer feeding every node of the next, with distinct names.
func layeredGPUGraph(t *testing.T, layers, width int, flops float64) *graph.Subgraph {
	t.Helper()
	g := graph.New("layered")
	var prev []*graph.Node
	for l := 0; l < layers; l++ {
		var cur []*graph.Node
		for i := 0; i < width; i++ {
			n := g.AddNode(&graph.Node{
				Name: fmt.Sprintf("L%dN%d", l, i), Op: graph.OpConv2D,
				Device: device.GPUID(0), FLOPs: flops,
			})
			for _, p := range prev {
				g.Connect(p, n)
			}
			cur = append(cur, n)
		}
		prev = cur
	}
	subs, err := graph.Partition(g)
	if err != nil {
		t.Fatal(err)
	}
	return subs[0]
}

// TestRecycledSlotsNeverFireStaleWork suspends a run while it has a
// kernel in flight, a launch task running and one queued, and resumes it
// while that task still runs. A second run then starts on the same pool
// and GPU and is aborted while both runs' tasks and kernels reuse the
// slots the suspension freed. Every node of the first run must execute
// exactly once and in dependency order, and the aborted run must
// dispatch and launch nothing after its abort and finish at most its one
// in-flight kernel.
func TestRecycledSlotsNeverFireStaleWork(t *testing.T) {
	f := newFixture(1)
	bus := f.machine.Bus()
	type key struct {
		ctx  int
		name string
	}
	spans := map[key][]obs.Event{}
	var abortedAt time.Duration = -1
	var lateWork []obs.Event // run 2's dispatches and launches after its abort
	bus.Subscribe(obs.SinkFunc(func(e obs.Event) {
		switch {
		case e.Kind == obs.KindKernelSpan:
			spans[key{e.Ctx, e.Name}] = append(spans[key{e.Ctx, e.Name}], e)
		case e.Ctx == 2 && abortedAt >= 0:
			lateWork = append(lateWork, e)
		}
	}), obs.KindKernelSpan, obs.KindOpSched, obs.KindLaunch)

	// Short kernels and long (eager) launch tasks: the stream drains well
	// before the worker finishes its task.
	sub1 := layeredGPUGraph(t, 4, 3, 1e8)
	sub2 := layeredGPUGraph(t, 4, 3, 1e8)
	s1, s2 := device.NewStream(f.machine.GPU(0)), device.NewStream(f.machine.GPU(0))
	cfg1, cfg2 := f.gpuConfig(s1), f.gpuConfig(s2)
	cfg1.Ctx, cfg1.Bus, cfg1.Eager = 1, bus, true
	cfg2.Ctx, cfg2.Bus, cfg2.Eager = 2, bus, true
	done1, done2 := 0, 0
	r1, err := Start(f.eng, sub1, cfg1, func() { done1++ })
	if err != nil {
		t.Fatal(err)
	}
	var r2 *Run
	var abortedProgress int
	// when polls cond every 10µs of virtual time and runs fn once it
	// holds, giving up after 50ms.
	var when func(cond func() bool, fn func())
	when = func(cond func() bool, fn func()) {
		switch {
		case cond():
			fn()
		case f.eng.Now() < 50*time.Millisecond:
			f.eng.After(10*time.Microsecond, func() { when(cond, fn) })
		}
	}
	when(func() bool { return s1.InFlight() && f.pool.Busy() > 0 && f.pool.Queued() > 0 }, func() {
		r1.Suspend(func() {
			if f.pool.Busy() == 0 {
				t.Error("run 1's task finished before the stream drained; nothing goes stale")
			}
			r1.Resume()
			if r2, err = Start(f.eng, sub2, cfg2, func() { done2++ }); err != nil {
				t.Fatal(err)
			}
			when(func() bool { return s2.InFlight() && f.pool.Queued() > 0 }, func() {
				abortedAt = f.eng.Now()
				abortedProgress, _ = r2.Progress()
				r2.Abort(nil)
			})
		})
	})
	f.eng.Run()

	if abortedAt < 0 {
		t.Fatal("the suspend or the abort never found its precondition")
	}
	if done1 != 1 || !r1.Done() {
		t.Fatalf("run 1: onDone fired %d times, Done=%v; want once", done1, r1.Done())
	}
	for _, n := range sub1.Nodes {
		got := spans[key{1, n.Name}]
		if len(got) != 1 {
			t.Fatalf("run 1 node %s executed %d kernels, want 1", n.Name, len(got))
		}
		for _, p := range n.Inputs() {
			if dep := spans[key{1, p.Name}]; len(dep) == 1 && got[0].Start < dep[0].Start+dep[0].Dur {
				t.Fatalf("run 1 node %s started at %v before input %s finished at %v",
					n.Name, got[0].Start, p.Name, dep[0].Start+dep[0].Dur)
			}
		}
	}
	if done2 != 0 || !r2.Aborted() {
		t.Fatalf("run 2: onDone fired %d times, Aborted=%v; want never and true", done2, r2.Aborted())
	}
	if len(lateWork) != 0 {
		t.Fatalf("run 2 dispatched or launched %d ops after its abort: %+v", len(lateWork), lateWork)
	}
	late := 0
	for k, evs := range spans {
		for _, e := range evs {
			if k.ctx == 2 && e.Start+e.Dur > abortedAt {
				late++
			}
		}
	}
	if late > 1 {
		t.Fatalf("run 2 finished %d kernels after its abort, want at most the one in flight", late)
	}
	if got, _ := r2.Progress(); got != abortedProgress {
		t.Fatalf("run 2 progress moved from %d to %d after its abort", abortedProgress, got)
	}
	if f.pool.Queued() != 0 || f.pool.Busy() != 0 || s1.Pending() != 0 || s2.Pending() != 0 {
		t.Fatalf("leftover work: pool queued %d busy %d, stream backlogs %d and %d",
			f.pool.Queued(), f.pool.Busy(), s1.Pending(), s2.Pending())
	}
}

// TestRunIterationAllocatesOnlyItsState pins the executor's per-iteration
// allocations: Start allocates the Run and its pending and doneSet
// slices, and nothing else on the kernel path allocates — worker tasks
// are values, and the run itself receives task and kernel completions.
func TestRunIterationAllocatesOnlyItsState(t *testing.T) {
	f := newFixture(2)
	gpuSub := layeredGPUGraph(t, 3, 3, 1e9)
	stream := device.NewStream(f.machine.GPU(0))
	cpu := graph.New("cpu")
	for i := 0; i < 4; i++ {
		cpu.AddNode(&graph.Node{Name: "shard", Op: graph.OpPreprocess,
			Device: device.CPUID, CPUTime: time.Millisecond})
	}
	cpuSubs, err := graph.Partition(cpu)
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	onDone := func() { done++ }
	for _, tc := range []struct {
		name string
		sub  *graph.Subgraph
		cfg  Config
	}{
		{"gpu", gpuSub, f.gpuConfig(stream)},
		{"cpu", cpuSubs[0], f.cpuConfig()},
	} {
		iteration := func() {
			if _, err := Start(f.eng, tc.sub, tc.cfg, onDone); err != nil {
				t.Fatal(err)
			}
			f.eng.Run()
		}
		iteration()
		const perStart = 3 // the Run, pending and doneSet
		if n := testing.AllocsPerRun(50, iteration); n != perStart {
			t.Errorf("%s iteration allocates %v times, want %d", tc.name, n, perStart)
		}
	}
	if done != 2*52 {
		t.Fatalf("%d iterations completed, want %d", done, 2*52)
	}
}

// TestLaunchTableMatchesCostModel: a GPU subgraph's launch table holds,
// for every member op, exactly what the cost model prices it at on that
// class and eager mode; it is built once per (class, eager); and a run on
// a GPU of another class launches that class's kernels.
func TestLaunchTableMatchesCostModel(t *testing.T) {
	spec, err := models.ByName("ResNet50")
	if err != nil {
		t.Fatal(err)
	}
	subs := buildSubgraphs(t, spec, models.BuildConfig{Batch: 8, Training: true, Device: device.GPUID(0)})
	sub := subs[len(subs)-1]
	if sub.Device.Kind != device.KindGPU {
		t.Fatalf("last subgraph is on %v, want a GPU", sub.Device)
	}
	plan := sub.Plan()
	for _, class := range []device.GPUClass{device.ClassV100, device.ClassGTX1080Ti} {
		for _, eager := range []bool{false, true} {
			ops := launchTable(sub, plan, class, eager)
			if again := launchTable(sub, plan, class, eager); &again[0] != &ops[0] {
				t.Errorf("%s eager=%v: table priced twice", class.Name, eager)
			}
			var dispatch time.Duration
			if eager {
				dispatch = eagerDispatchOverhead
			}
			for _, n := range sub.Nodes {
				work := cost.KernelDuration(n, class)
				want := graph.Launch{
					Work:      work,
					Worker:    dispatch + time.Microsecond,
					Occupancy: cost.Occupancy(n),
					Expensive: cost.IsExpensive(n, class),
				}
				if work > 0 {
					want.Worker = dispatch + cost.LaunchOverhead(class)
				}
				if got := ops[n.ID]; got != want {
					t.Fatalf("%s eager=%v %s: entry %+v, want %+v", class.Name, eager, n.Name, got, want)
				}
			}
		}
	}

	// One subgraph, run once on each GPU of a V100 + GTX 1080 Ti machine:
	// every launch carries the kernel time of the GPU it runs on.
	eng := sim.NewEngine()
	machine := device.NewMachine(eng, device.ClassXeonDual, device.ClassV100, device.ClassGTX1080Ti)
	pool := threadpool.New(eng, "global", 2)
	small := layeredGPUGraph(t, 3, 2, 1e9)
	var launched []time.Duration
	machine.Bus().Subscribe(obs.SinkFunc(func(e obs.Event) {
		launched = append(launched, e.Dur)
	}), obs.KindLaunch)
	for gpu := 0; gpu < 2; gpu++ {
		launched = launched[:0]
		stream := device.NewStream(machine.GPU(gpu))
		cfg := Config{Pool: pool, CPUClass: machine.CPU, Stream: stream, Machine: machine, Bus: machine.Bus()}
		if _, err := Start(eng, small, cfg, nil); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		want := cost.KernelDuration(small.Nodes[0], machine.GPU(gpu).Class)
		if len(launched) != len(small.Nodes) {
			t.Fatalf("gpu %d: %d launches, want %d", gpu, len(launched), len(small.Nodes))
		}
		for _, d := range launched {
			if d != want {
				t.Fatalf("gpu %d (%s): launched a %v kernel, want %v", gpu, machine.GPU(gpu).Class.Name, d, want)
			}
		}
	}
	if cost.KernelDuration(small.Nodes[0], device.ClassV100) == cost.KernelDuration(small.Nodes[0], device.ClassGTX1080Ti) {
		t.Fatal("the two classes price the kernel alike; the test cannot tell them apart")
	}
}

// TestSharedStreamKernelSpans runs two runs concurrently on one stream,
// then chains three more as each ends: the third registers in a slot the
// first released, and the fourth is aborted with a kernel in flight while
// the fifth registers beside it. The kernel spans (name, ctx, start,
// duration) are pinned: they are the ones the executor produced when each
// kernel carried its own name and receiver.
func TestSharedStreamKernelSpans(t *testing.T) {
	f := newFixture(2)
	bus := f.machine.Bus()
	var got []string
	bus.Subscribe(obs.SinkFunc(func(e obs.Event) {
		got = append(got, fmt.Sprintf("%s ctx%d %v+%v", e.Name, e.Ctx, e.Start, e.Dur))
	}), obs.KindKernelSpan)
	stream := device.NewStream(f.machine.GPU(0))
	start := func(ctx int, sub *graph.Subgraph, onDone func()) *Run {
		cfg := f.gpuConfig(stream)
		cfg.Ctx, cfg.Bus = ctx, bus
		r, err := Start(f.eng, sub, cfg, onDone)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	start(1, layeredGPUGraph(t, 3, 2, 4e9), func() {
		start(3, layeredGPUGraph(t, 2, 2, 1e9), func() {
			r4 := start(4, layeredGPUGraph(t, 2, 2, 8e9), nil)
			f.eng.After(1200*time.Microsecond, func() {
				if !stream.InFlight() {
					t.Error("run 4 has no kernel in flight at its abort")
				}
				r4.Abort(nil)
				start(5, layeredGPUGraph(t, 1, 2, 1e9), nil)
			})
		})
	})
	start(2, layeredGPUGraph(t, 2, 3, 2e9), nil)
	f.eng.Run()
	want := []string{
		"L0N0 ctx1 6µs+712.663µs",
		"L0N1 ctx1 718.663µs+712.663µs",
		"L0N0 ctx2 1.431326ms+356.331µs",
		"L0N1 ctx2 1.787657ms+356.331µs",
		"L0N2 ctx2 2.143988ms+356.331µs",
		"L1N0 ctx1 2.500319ms+712.663µs",
		"L1N1 ctx1 3.212982ms+712.663µs",
		"L1N0 ctx2 3.925645ms+356.331µs",
		"L1N1 ctx2 4.281976ms+356.331µs",
		"L1N2 ctx2 4.638307ms+356.331µs",
		"L2N0 ctx1 4.994638ms+712.663µs",
		"L2N1 ctx1 5.707301ms+712.663µs",
		"L0N0 ctx3 6.425964ms+178.165µs",
		"L0N1 ctx3 6.604129ms+178.165µs",
		"L1N0 ctx3 6.788294ms+178.165µs",
		"L1N1 ctx3 6.966459ms+178.165µs",
		"L0N0 ctx4 7.150624ms+1.425326ms",
		"L0N0 ctx5 8.57595ms+178.165µs",
		"L0N1 ctx5 8.754115ms+178.165µs",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("kernel spans\n got %q\nwant %q", got, want)
	}
}
