// Package executor runs one subgraph on one device, reproducing TF's
// executor mechanics (§2.1): nodes become ready as their in-subgraph
// dependencies complete; worker threads from a shared pool process CPU ops
// (occupying the thread) and launch GPU ops (occupying the thread only for
// the launch, with the kernel executing asynchronously on the device's
// stream); expensive successors are dispatched to any worker while
// inexpensive ones ride their parent's local queue.
package executor

import (
	"fmt"
	"time"

	"switchflow/internal/cost"
	"switchflow/internal/device"
	"switchflow/internal/graph"
	"switchflow/internal/obs"
	"switchflow/internal/sim"
	"switchflow/internal/threadpool"
)

// Config wires a Run to its resources.
type Config struct {
	// Pool supplies inter-op worker threads (CPU ops, kernel launches).
	Pool *threadpool.Pool
	// DataPool, when set, runs Preprocess nodes — tf.data's parallel data
	// workers live in their own pool, separate from the executor's
	// inter-op threads, so preprocessing cannot starve kernel launches.
	// Nil falls back to Pool.
	DataPool *threadpool.Pool
	// CPUClass scales CPU op durations.
	CPUClass device.CPUClass
	// Stream is the GPU compute stream; nil for CPU subgraphs. The
	// stream's GPU class also drives kernel durations.
	Stream *device.Stream
	// Machine provides copy engines for Send nodes.
	Machine *device.Machine
	// Ctx tags kernels for traces (one id per job).
	Ctx int
	// Bus, when set, receives OpSched and Launch events on the
	// observability spine. Emission is gated on active subscribers, so an
	// unobserved run pays only a nil-check on this hot path.
	Bus *obs.Bus
	// Eager charges every GPU op a framework dispatch overhead — dynamic
	// graph execution interprets user code per op instead of replaying a
	// pre-optimized plan (§1).
	Eager bool
}

// eagerDispatchOverhead is the per-op cost of dynamic-graph dispatch
// (Python-level op construction and bookkeeping).
const eagerDispatchOverhead = 75 * time.Microsecond

// Run is one activation of a subgraph (one iteration's worth of its
// nodes). Create with Start.
//
// A Run can be suspended (queued work aborted, in-flight work drained,
// progress kept) and later resumed — the paper's preemption semantics:
// "the new session is populated with the tasks of the aborted session run
// so that no work is lost" (§3.3). Abort is a terminal suspend.
type Run struct {
	sub *graph.Subgraph
	cfg Config
	eng *sim.Engine
	// pending counts unmet intra-subgraph dependencies per node ID; -1
	// marks nodes of other subgraphs (dependencies across subgraphs are
	// satisfied by stage sequencing). doneSet is indexed the same way.
	// Slices, not maps: a Run is created for every iteration of every
	// job, and the dependency bookkeeping is the executor's hottest path.
	pending []int32
	doneSet []bool
	// launch prices each op of a GPU subgraph by node ID, shared by
	// every run with the same GPU class and eager mode; nil for CPU
	// subgraphs.
	launch []graph.Launch
	// shardsLeft counts, per node ID, the unfinished shards of a sharded
	// CPU op; allocated on the first sharded dispatch.
	shardsLeft []int32
	done       int
	total      int
	suspended  bool
	aborted    bool
	// epoch counts suspensions. Worker tasks carry the epoch they were
	// dispatched in, so a task that outlives a suspension is ignored.
	epoch  int32
	onDone func()
}

// Start begins executing sub and returns its Run handle. onDone fires when
// every node has completed (never after Abort).
func Start(eng *sim.Engine, sub *graph.Subgraph, cfg Config, onDone func()) (*Run, error) {
	if cfg.Pool == nil {
		return nil, fmt.Errorf("executor: %s: nil pool", sub.Name())
	}
	if sub.Device.Kind == device.KindGPU && cfg.Stream == nil {
		return nil, fmt.Errorf("executor: %s: GPU subgraph needs a stream", sub.Name())
	}
	plan := sub.Plan()
	r := &Run{
		sub:     sub,
		cfg:     cfg,
		eng:     eng,
		pending: make([]int32, plan.NumNodes),
		doneSet: make([]bool, plan.NumNodes),
		total:   len(sub.Nodes),
		onDone:  onDone,
	}
	copy(r.pending, plan.Deps)
	if sub.Device.Kind == device.KindGPU {
		r.launch = launchTable(sub, plan, cfg.Stream.GPU().Class, cfg.Eager)
	}
	if r.total == 0 {
		eng.After(0, r.finish)
		return r, nil
	}
	// Initial dispatch: the ready queue is drained breadth-first onto
	// separate local queues (§2.1).
	for _, n := range plan.Ready {
		r.dispatch(n, -1, false)
	}
	return r, nil
}

// Done reports whether every node completed.
func (r *Run) Done() bool { return r.done == r.total && !r.aborted }

// Aborted reports whether the run was cancelled terminally.
func (r *Run) Aborted() bool { return r.aborted }

// Suspended reports whether the run is paused and resumable.
func (r *Run) Suspended() bool { return r.suspended && !r.aborted }

// Progress returns completed and total node counts.
func (r *Run) Progress() (completed, total int) { return r.done, r.total }

// Suspend pauses the run: queued worker tasks are removed from the pool
// and the stream's backlog is discarded; the in-flight kernel (if any)
// drains and its completion is kept (§3.3: dispatched kernels finish).
// onDrained fires once in-flight work ends — the preemption critical
// path. Resume continues from the retained progress.
func (r *Run) Suspend(onDrained func()) {
	if r.aborted || r.suspended {
		if onDrained != nil {
			onDrained()
		}
		return
	}
	r.suspended = true
	r.epoch++
	r.cfg.Pool.Abort(r)
	if r.cfg.DataPool != nil {
		r.cfg.DataPool.Abort(r)
	}
	if r.cfg.Stream != nil {
		r.cfg.Stream.Abort()
		if onDrained != nil {
			r.cfg.Stream.Drain(onDrained)
		}
		return
	}
	if onDrained != nil {
		onDrained()
	}
}

// Resume re-dispatches every ready-but-incomplete node of a suspended run.
// Callers must wait for Suspend's drain callback first.
func (r *Run) Resume() {
	if r.aborted || !r.suspended {
		return
	}
	r.suspended = false
	if r.done == r.total {
		r.finish()
		return
	}
	for _, n := range r.sub.Nodes {
		if !r.doneSet[n.ID] && r.pending[n.ID] == 0 {
			r.dispatch(n, -1, false)
		}
	}
}

// Abort cancels the run terminally; it can never resume and onDone never
// fires. onDrained follows Suspend's contract.
func (r *Run) Abort(onDrained func()) {
	if r.aborted {
		if onDrained != nil {
			onDrained()
		}
		return
	}
	wasSuspended := r.suspended
	r.aborted = true
	r.suspended = true
	if wasSuspended {
		if onDrained != nil {
			onDrained()
		}
		return
	}
	r.cfg.Pool.Abort(r)
	if r.cfg.DataPool != nil {
		r.cfg.DataPool.Abort(r)
	}
	if r.cfg.Stream != nil {
		r.cfg.Stream.Abort()
		if onDrained != nil {
			r.cfg.Stream.Drain(onDrained)
		}
		return
	}
	if onDrained != nil {
		onDrained()
	}
}

// Discard is Abort without a drain callback, for runs already suspended.
func (r *Run) Discard() { r.Abort(nil) }

// dispatch hands node n to a worker. preferred/front implement the
// expensive/inexpensive local-queue policy. The task carries the current
// epoch, which invalidates it after a suspension, so a node cannot be
// processed twice when a suspend races with a worker mid-task.
func (r *Run) dispatch(n *graph.Node, preferred int, front bool) {
	duration := r.workerTime(n)
	pool := r.cfg.Pool
	if n.Op == graph.OpPreprocess && r.cfg.DataPool != nil {
		pool = r.cfg.DataPool
	}
	if r.cfg.Bus.Wants(obs.KindOpSched) {
		from := "any"
		if preferred >= 0 {
			from = "local"
		}
		r.cfg.Bus.Emit(obs.Event{
			Kind:   obs.KindOpSched,
			Ctx:    r.cfg.Ctx,
			Device: r.sub.Device.String(),
			From:   from,
			Name:   n.Name,
			Dur:    duration,
		})
	}
	if r.sub.Device.Kind == device.KindCPU {
		if shards := intraOpShards(n, duration, pool.Size()); shards > 1 {
			r.dispatchSharded(n, pool, duration, shards)
			return
		}
	}
	pool.Submit(r.task(n, duration), preferred, front)
}

// task is n's worker task in the current epoch.
func (r *Run) task(n *graph.Node, duration time.Duration) threadpool.Task {
	return threadpool.Task{Owner: r, Node: int32(n.ID), Epoch: r.epoch, Duration: duration}
}

// dispatchSharded fans a heavy CPU op over several worker threads with
// MKL-style imperfect scaling; the node completes when every shard does.
func (r *Run) dispatchSharded(n *graph.Node, pool *threadpool.Pool, total time.Duration, shards int) {
	if r.shardsLeft == nil {
		r.shardsLeft = make([]int32, len(r.pending))
	}
	r.shardsLeft[n.ID] = int32(shards)
	per := time.Duration(float64(total) / (float64(shards) * mklScalingEfficiency))
	for i := 0; i < shards; i++ {
		pool.Submit(r.task(n, per), -1, false)
	}
}

// RunTask implements threadpool.Owner: a worker finished node t.Node's
// task (or one shard of it). Tasks from before a suspension are stale.
func (r *Run) RunTask(t threadpool.Task) {
	if t.Epoch != r.epoch {
		return
	}
	if r.shardsLeft != nil && r.shardsLeft[t.Node] > 0 {
		r.shardsLeft[t.Node]--
		if r.shardsLeft[t.Node] > 0 {
			return
		}
	}
	r.process(r.sub.Graph.Nodes()[t.Node])
}

// workerTime is how long node n occupies the worker thread itself.
func (r *Run) workerTime(n *graph.Node) time.Duration {
	if r.launch == nil {
		return cost.CPUDuration(n, r.cfg.CPUClass)
	}
	return r.launch[n.ID].Worker
}

// launchTable returns sub's launch table for a GPU of the given class,
// pricing every member op on first use. On a GPU executor the worker
// thread only pays the launch overhead; ops without a kernel (Recv, NoOp)
// still cost a moment of bookkeeping, and eager mode adds its dispatch
// overhead to both.
func launchTable(sub *graph.Subgraph, plan *graph.ExecPlan, class device.GPUClass, eager bool) []graph.Launch {
	if ops := plan.LaunchTable(class, eager); ops != nil {
		return ops
	}
	var dispatch time.Duration
	if eager {
		dispatch = eagerDispatchOverhead
	}
	ops := make([]graph.Launch, plan.NumNodes)
	for _, n := range sub.Nodes {
		l := graph.Launch{
			Work:      cost.KernelDuration(n, class),
			Worker:    dispatch + time.Microsecond,
			Occupancy: cost.Occupancy(n),
			Expensive: cost.IsExpensive(n, class),
		}
		if l.Work > 0 {
			l.Worker = dispatch + cost.LaunchOverhead(class)
		}
		ops[n.ID] = l
	}
	plan.SetLaunchTable(class, eager, ops)
	return ops
}

// intraOpShards is the MKL-style intra-op parallelism of a CPU compute
// op: heavy dense math fans out over several worker threads (at reduced
// per-thread efficiency), which is both why a migrated-to-CPU job runs at
// usable speed and why the paper keeps such jobs in the temporary pool —
// their shards would otherwise occupy many global workers (§3.3).
func intraOpShards(n *graph.Node, total time.Duration, poolSize int) int {
	if n.Op == graph.OpPreprocess || n.CPUTime > 0 {
		return 1 // data ops are sharded at graph-build time already
	}
	if total < 10*time.Millisecond {
		return 1
	}
	shards := 8
	if shards > poolSize {
		shards = poolSize
	}
	if shards < 1 {
		shards = 1
	}
	return shards
}

// mklScalingEfficiency discounts intra-op parallel speedup.
const mklScalingEfficiency = 0.75

// process runs after node n's worker time elapsed: CPU ops are then
// complete; GPU ops enqueue their kernel; Send ops start their transfer.
func (r *Run) process(n *graph.Node) {
	if r.aborted || r.suspended {
		return
	}
	switch {
	case n.Op == graph.OpSend:
		r.startSend(n)
	case r.launch != nil:
		l := &r.launch[n.ID]
		if l.Work == 0 {
			r.complete(n)
			return
		}
		if r.cfg.Bus.Wants(obs.KindLaunch) {
			r.cfg.Bus.Emit(obs.Event{
				Kind:   obs.KindLaunch,
				Ctx:    r.cfg.Ctx,
				Device: r.sub.Device.String(),
				Name:   n.Name,
				Dur:    l.Work,
			})
		}
		r.cfg.Stream.Enqueue(device.Kernel{
			Name:      n.Name,
			Work:      l.Work,
			Occupancy: l.Occupancy,
			Ctx:       r.cfg.Ctx,
			Done:      r,
			Tag:       int32(n.ID),
		})
	default:
		r.complete(n)
	}
}

// KernelDone implements device.Completer: node tag's kernel completed.
func (r *Run) KernelDone(tag int32) { r.complete(r.sub.Graph.Nodes()[tag]) }

// startSend moves n's tensor over the copy path toward its Recv peer.
func (r *Run) startSend(n *graph.Node) {
	if r.cfg.Machine == nil || len(n.Outputs()) == 0 {
		r.complete(n)
		return
	}
	dst := n.Outputs()[0].Device
	engine, err := r.cfg.Machine.CopyPath(n.Device, dst)
	if err != nil {
		r.complete(n)
		return
	}
	epoch := r.epoch
	engine.Transfer(n.OutputBytes, 1, func() {
		if epoch == r.epoch && !r.aborted && !r.suspended {
			r.complete(n)
		}
	})
}

// complete marks n done and dispatches newly ready successors. While
// suspended, progress is recorded (an in-flight kernel finishing during
// the drain) but no new work is dispatched.
func (r *Run) complete(n *graph.Node) {
	if r.aborted || r.doneSet[n.ID] {
		return
	}
	r.doneSet[n.ID] = true
	r.done++
	for _, succ := range n.Outputs() {
		deps := r.pending[succ.ID]
		if deps < 0 {
			continue // successor lives in another subgraph
		}
		r.pending[succ.ID] = deps - 1
		if deps-1 > 0 || r.suspended {
			continue
		}
		if r.expensive(succ) {
			// Expensive nodes get their own local queue (any worker).
			r.dispatch(succ, -1, false)
		} else {
			// Inexpensive nodes ride the parent's queue.
			r.dispatch(succ, n.ID%r.cfg.Pool.Size(), true)
		}
	}
	if r.done == r.total && !r.suspended {
		r.finish()
	}
}

// expensive reports TF's expensive/inexpensive classification of n on this
// run's device.
func (r *Run) expensive(n *graph.Node) bool {
	if r.launch == nil {
		return cost.IsExpensive(n, device.GPUClass{})
	}
	return r.launch[n.ID].Expensive
}

func (r *Run) finish() {
	if r.aborted {
		return
	}
	if r.onDone != nil {
		r.onDone()
	}
}
