package device

import (
	"math"
	"time"

	"switchflow/internal/obs"
	"switchflow/internal/ring"
	"switchflow/internal/sim"
)

// Kernel is one unit of GPU work submitted for execution. It is plain
// data: the receiver is named by its registration index, and the kernel's
// name is asked of the receiver only when a trace wants it.
type Kernel struct {
	// Work is the solo execution time of the kernel on this GPU.
	Work time.Duration
	// Occupancy in [0,1] is the fraction of GPU resources (registers,
	// SMs) the kernel's launch configuration consumes. Heavy cuDNN-style
	// kernels are near 1 and cannot co-run (§2.2: 10 of 13 conv kernels
	// were register-bottlenecked), so a second heavy kernel waits — the
	// serialization visible in Figure 2.
	Occupancy float64
	// Ctx identifies the owning context (job) for traces and accounting.
	Ctx int
	// Recv is the registration index of the receiver told of the
	// kernel's completion, in virtual time, with Tag (GPU.Register for
	// kernels submitted to a GPU, Stream.Register for kernels enqueued on
	// a stream). 0 tells nobody. A registered receiver plus a tag instead
	// of a closure: the executor passes its run's index and the node ID,
	// so launching a kernel builds nothing and copies no pointer.
	Recv int32
	// Tag is handed back to the receiver.
	Tag int32
}

// Completer receives kernel completions. Completers are compared by
// identity when they register, so they must be comparable (pointers, in
// practice).
type Completer interface {
	// KernelDone reports that the kernel submitted with tag completed.
	KernelDone(tag int32)
	// KernelName labels the kernel submitted with tag in traces, e.g.
	// "conv2d_3/fwd". It is asked only while a kernel-span sink listens.
	KernelName(tag int32) string
}

// receivers is a table of registered Completers, indexed by Kernel.Recv.
// Slot 0 is never handed out, so a zero Recv tells nobody.
type receivers []Completer

// register returns c's index, reusing c's own slot if it is registered
// already, else the lowest free one.
func (t *receivers) register(c Completer) int32 {
	free := 0
	for i := 1; i < len(*t); i++ {
		switch (*t)[i] {
		case c:
			return int32(i)
		case nil:
			if free == 0 {
				free = i
			}
		}
	}
	if free > 0 {
		(*t)[free] = c
		return int32(free)
	}
	if len(*t) == 0 {
		*t = append(*t, nil) // slot 0 stays empty
	}
	*t = append(*t, c)
	return int32(len(*t) - 1)
}

// Span records one executed kernel interval, for Figure 2 style timelines.
type Span struct {
	Name  string
	Ctx   int
	Start time.Duration
	End   time.Duration
}

// record is a kernel queued on a stream, queued at the GPU or running
// there. It holds no pointer, so the buffers that move it copy and clear
// it with plain stores, and the garbage collector never scans them.
type record struct {
	remaining float64 // seconds of solo work left
	started   time.Duration
	occ       float64 // occupancy, clamped to [0.05, 1]
	ctx       int
	recv      int32 // receiver index in the submitter's table
	tag       int32
}

func newRecord(k Kernel) record {
	occ := k.Occupancy
	if occ < 0.05 {
		occ = 0.05
	}
	if occ > 1 {
		occ = 1
	}
	return record{remaining: k.Work.Seconds(), occ: occ, ctx: k.Ctx, recv: k.Recv, tag: k.Tag}
}

// contentionBeta is the per-extra-kernel slowdown when kernels do co-run
// (shared memory bandwidth and cache pressure).
const contentionBeta = 0.06

// GPU is a simulated graphics processor. Kernels are admitted in FIFO
// order while their combined occupancy fits the device (capacity 1.0);
// admitted kernels run concurrently at a mildly contended rate, everything
// else waits. Exclusive use is a scheduler-level policy, not a device
// property, exactly as on real hardware.
type GPU struct {
	// Class describes the hardware.
	Class GPUClass
	// Mem is the device memory pool.
	Mem *MemPool

	bus        *obs.Bus
	id         ID
	eng        *sim.Engine
	recv       receivers // the receivers kernels report to, by Kernel.Recv
	running    []record
	queue      ring.Deque[record]
	done       []record // complete's scratch; complete never re-enters
	completeFn func()   // g.complete, bound once
	usedOcc    float64
	lastUpdate time.Duration
	completion sim.Event
	busy       time.Duration
	busySince  time.Duration
	launched   uint64
	dropped    uint64
	failed     bool
	heals      uint64 // Heal calls that ended a failure; see Stream.settle
	draining   bool
	slowdown   float64 // execution slowdown while degraded; 0 or 1 = healthy
}

// NewGPU creates a GPU of the given class bound to the engine.
func NewGPU(eng *sim.Engine, id ID, class GPUClass) *GPU {
	g := &GPU{
		Class: class,
		Mem:   NewMemPool(id.String()+" ("+class.Name+")", class.MemoryBytes),
		id:    id,
		eng:   eng,
	}
	g.completeFn = g.complete
	return g
}

// ID returns the device identifier.
func (g *GPU) ID() ID { return g.id }

// EventBus returns the observability bus this GPU publishes to. GPUs
// built through NewMachine share the machine's bus; a standalone GPU
// lazily creates a private one so tests can subscribe directly.
func (g *GPU) EventBus() *obs.Bus {
	if g.bus == nil {
		g.bus = obs.NewBus(g.eng)
	}
	return g.bus
}

// SetBus points the GPU at a shared bus (called by NewMachine).
func (g *GPU) SetBus(b *obs.Bus) { g.bus = b }

// Register returns c's receiver index on this GPU, for Kernel.Recv.
// Streams register once, in NewStream; registrations are never released,
// as a stream lives as long as the job that owns it.
func (g *GPU) Register(c Completer) int32 { return g.recv.register(c) }

// Submit queues k for execution. It starts immediately if its occupancy
// fits alongside the kernels already running, otherwise it waits FIFO.
// Kernels submitted to a failed device are dropped and never complete,
// like launches against a lost CUDA context; schedulers are expected to
// abort the owning executor runs when they handle the device-lost fault.
func (g *GPU) Submit(k Kernel) { g.submit(newRecord(k)) }

func (g *GPU) submit(r record) {
	if g.failed {
		g.dropped++
		return
	}
	g.advance()
	g.launched++
	// A kernel that finds nothing waiting and fits starts at once, without
	// a trip through the FIFO.
	if g.queue.Len() == 0 && !g.blocked(&r) {
		g.start(r)
	} else {
		g.queue.PushBack(r)
		g.admit()
	}
	g.reschedule()
}

// Active returns the number of kernels currently executing.
func (g *GPU) Active() int { return len(g.running) }

// Waiting returns the number of kernels queued at the device.
func (g *GPU) Waiting() int { return g.queue.Len() }

// Launched returns the total number of kernels ever submitted.
func (g *GPU) Launched() uint64 { return g.launched }

// Draining reports whether the device is being drained for maintenance:
// it still executes work, but placement layers must stop assigning new
// jobs or virtual nodes to it.
func (g *GPU) Draining() bool { return g.draining }

// SetDraining marks (or clears) the device's administrative drain state.
// Unlike Fail it has no hardware effect — in-flight kernels finish and
// resident memory stays valid, so schedulers can migrate state off the
// device over the cheap peer path.
func (g *GPU) SetDraining(v bool) { g.draining = v }

// BusyTime returns the accumulated time during which at least one kernel
// was executing, for utilization accounting (Figure 3).
func (g *GPU) BusyTime() time.Duration {
	if len(g.running) > 0 {
		return g.busy + (g.eng.Now() - g.busySince)
	}
	return g.busy
}

// Failed reports whether the device has been lost (fault injection).
func (g *GPU) Failed() bool { return g.failed }

// Slowdown returns the current degraded-mode slowdown factor (1 while
// healthy).
func (g *GPU) Slowdown() float64 {
	if g.slowdown <= 1 {
		return 1
	}
	return g.slowdown
}

// DroppedKernels returns how many kernels were discarded — in flight or
// queued at Fail time, or submitted after it.
func (g *GPU) DroppedKernels() uint64 { return g.dropped }

// Fail takes the device off the bus: every in-flight and queued kernel is
// discarded without completing (their receivers are never told) and
// the memory pool's contents are lost. It returns the number of kernels
// dropped. Further Submits are dropped too, until Heal.
func (g *GPU) Fail() int {
	if g.failed {
		return 0
	}
	g.advance()
	if len(g.running) > 0 {
		g.busy += g.eng.Now() - g.busySince
	}
	lost := len(g.running) + g.queue.Len()
	g.dropped += uint64(lost)
	g.running = g.running[:0]
	g.queue.Clear()
	g.usedOcc = 0
	g.completion.Cancel()
	g.completion = sim.Event{}
	g.failed = true
	g.Mem.Invalidate()
	return lost
}

// Degrade slows kernel execution by factor (>= 1), modelling a device in
// a throttled or error-retry state (e.g. after correctable ECC errors).
// Degrading a failed device has no effect until it heals.
func (g *GPU) Degrade(factor float64) {
	if factor < 1 {
		factor = 1
	}
	g.advance()
	g.slowdown = factor
	g.reschedule()
}

// Heal returns the device to healthy full-speed operation. Memory lost at
// Fail time stays lost; jobs must restore state from host checkpoints.
func (g *GPU) Heal() {
	g.advance()
	if g.failed {
		g.heals++
	}
	g.failed = false
	g.slowdown = 0
	g.reschedule()
}

// OutstandingWork returns the remaining solo-time of executing plus queued
// kernels. Preemption must wait out (at worst) this backlog (§3.3).
func (g *GPU) OutstandingWork() time.Duration {
	g.advance()
	var total float64
	for i := range g.running {
		total += g.running[i].remaining
	}
	for i := 0; i < g.queue.Len(); i++ {
		total += g.queue.At(i).remaining
	}
	return time.Duration(total * float64(time.Second))
}

// admit moves queued kernels into execution while they fit, in FIFO order
// (a big kernel at the head blocks the lane, like a hardware work queue).
func (g *GPU) admit() {
	for g.queue.Len() > 0 {
		if g.blocked(g.queue.At(0)) {
			return
		}
		g.start(g.queue.PopFront())
	}
}

// blocked reports whether r does not fit beside the running kernels.
func (g *GPU) blocked(r *record) bool { return g.usedOcc+r.occ > 1.0001 }

// start moves r into execution.
func (g *GPU) start(r record) {
	if len(g.running) == 0 {
		g.busySince = g.eng.Now()
	}
	r.started = g.eng.Now()
	g.usedOcc += r.occ
	g.running = append(g.running, r)
}

// advance applies elapsed virtual time to running kernels at the current
// contention rate, without completing any of them.
func (g *GPU) advance() {
	now := g.eng.Now()
	elapsed := (now - g.lastUpdate).Seconds()
	g.lastUpdate = now
	if elapsed <= 0 || len(g.running) == 0 {
		return
	}
	rate := g.rate()
	for i := range g.running {
		e := &g.running[i]
		e.remaining -= elapsed * rate
		if e.remaining < 0 {
			e.remaining = 0
		}
	}
}

// rate is the execution speed of each co-running kernel: full speed alone,
// mildly degraded when kernels genuinely overlap, further scaled down
// while the device is in a degraded fault state.
func (g *GPU) rate() float64 {
	rate := 1.0
	if n := len(g.running); n > 1 {
		rate = 1 / (1 + contentionBeta*float64(n-1))
	}
	if g.slowdown > 1 {
		rate /= g.slowdown
	}
	return rate
}

// reschedule cancels any pending completion event and schedules one for
// the earliest-finishing running kernel.
func (g *GPU) reschedule() {
	g.completion.Cancel()
	if len(g.running) == 0 {
		return
	}
	rate := g.rate()
	minLeft := math.MaxFloat64
	for i := range g.running {
		if left := g.running[i].remaining / rate; left < minLeft {
			minLeft = left
		}
	}
	// Round up to a whole nanosecond so a kernel with sub-nanosecond
	// residue cannot reschedule a zero-delay completion forever.
	delay := time.Duration(math.Ceil(minLeft * float64(time.Second)))
	g.completion = g.eng.After(delay, g.completeFn)
}

// complete retires every kernel whose work has drained, tells their
// receivers, admits waiters, and reschedules. Only the engine calls it
// (through completeFn), so it never re-enters and can reuse g.done.
func (g *GPU) complete() {
	g.advance()
	// Anything under a nanosecond of solo work is done: the event queue's
	// resolution is 1 ns, so finer residues can never drain.
	const eps = 1e-9
	done := g.done[:0]
	kept := 0
	for i := range g.running {
		e := &g.running[i]
		if e.remaining <= eps {
			done = append(done, *e)
			g.usedOcc -= e.occ
			continue
		}
		if kept != i {
			g.running[kept] = *e
		}
		kept++
	}
	g.running = g.running[:kept]
	if len(g.running) == 0 {
		if len(done) > 0 {
			g.busy += g.eng.Now() - g.busySince
		}
		g.usedOcc = 0 // absorb float drift at idle points
	}
	g.admit()
	emitSpans := g.bus.Wants(obs.KindKernelSpan)
	for i := range done {
		e := &done[i]
		var c Completer
		if e.recv != 0 {
			c = g.recv[e.recv]
		}
		if emitSpans {
			name := ""
			if c != nil {
				name = c.KernelName(e.tag)
			}
			g.bus.Emit(obs.Event{
				Kind:   obs.KindKernelSpan,
				Ctx:    e.ctx,
				Device: g.id.String(),
				Name:   name,
				Start:  e.started,
				Dur:    g.eng.Now() - e.started,
			})
		}
		if c != nil {
			c.KernelDone(e.tag)
		}
	}
	g.done = done[:0]
	// Callbacks may have submitted new kernels (Submit reschedules), but
	// if they did not we still need a completion event for survivors.
	if !g.completion.Scheduled() {
		g.reschedule()
	}
}
