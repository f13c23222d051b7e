// Package obs is the observability spine: one structured, virtual-time
// event stream that every layer publishes into and every consumer reads
// from. The paper's evidence is timelines and kernel profiles (Figure 2,
// §2.2's nvprof tables); the spine records not just kernel execution but
// the scheduler decisions around it — preemptions, migrations, batch
// fusions, sheds, faults, checkpoints — so a single trace explains what
// ran, what was displaced, and why.
//
// Determinism contract: every event carries a monotonic sequence number
// assigned at emit, in virtual-time order, by the owning Bus. Each
// simulation cell owns its engine and its bus, so serial and parallel
// harness runs of the same cell produce identical event streams and the
// exporters below produce byte-identical files.
package obs

import (
	"time"

	"switchflow/internal/sim"
)

// Kind classifies an event. The taxonomy covers every layer of the stack:
// device execution, executor dispatch, core scheduling decisions, the
// serving path, fault handling, and cluster placement.
type Kind uint8

const (
	// KindKernelSpan is a completed kernel interval on a GPU (the raw
	// material of Figure 2). Start/Dur bound the interval; Time is its end.
	KindKernelSpan Kind = iota + 1
	// KindOpSched is an operator picked off the executor's ready queue and
	// assigned to a worker (dataflow-level scheduling, below kernel level).
	KindOpSched
	// KindLaunch is a kernel handed to a device stream by the executor.
	KindLaunch
	// KindPreempt is a scheduler decision to displace a running job from a
	// GPU in favor of a higher-priority one (§3.3).
	KindPreempt
	// KindResume is a previously suspended job re-entering execution.
	KindResume
	// KindMigrate is a job's GPU state moving between devices; Name says
	// why ("preempt" or "fault"), From/Device give source and destination.
	KindMigrate
	// KindBatchFuse is a micro-batch of requests executing as one fused
	// step; Count is the batch size.
	KindBatchFuse
	// KindAdmit is a request accepted by admission control.
	KindAdmit
	// KindShed is a request rejected at the door because its projected
	// latency would bust the SLO.
	KindShed
	// KindServe is a request completing; Dur is its latency, Count is 1
	// when the latency met the job's SLO.
	KindServe
	// KindFaultInject is a fault delivered to the scheduler; Name is the
	// fault kind ("device-lost", "transient", ...).
	KindFaultInject
	// KindJobLost is a job dying with no recovery path.
	KindJobLost
	// KindCheckpoint is a state snapshot taken (periodic background
	// checkpoints, or Name="preempt" for checkpoint-based preemption).
	KindCheckpoint
	// KindRestore is state restored from a checkpoint; Count is the number
	// of iterations rolled back, Name is the trigger.
	KindRestore
	// KindPlace is a cluster-level placement decision binding a job to a
	// node and device.
	KindPlace
	// KindBind is a virtual node bound to a physical device (admission or
	// grow); Count is the vnode index, Dur-free.
	KindBind
	// KindRebind is a virtual node moving between physical devices at an
	// epoch-safe point; From/Device give source and destination, Name says
	// why ("drain", "fault", "rebind"), Count is the vnode index.
	KindRebind
	// KindResize is a job's virtual-node set growing or shrinking; Name is
	// "grow" or "shrink" and Count the new vnode count.
	KindResize
	// KindRoute is the fleet front-end assigning one epoch's worth of a
	// tenant's requests to a replica: Job is the tenant id, Ctx/Device the
	// replica's context and GPU, From the routing strategy, Count the
	// number of requests routed (arrivals are aggregated per epoch so the
	// trace stays proportional to epochs, not to millions of clients).
	KindRoute
	// KindScaleOut is the autoscaler adding a replica to a tenant's set on
	// sustained shed rate; Job is the tenant id, Name the new replica's
	// job name, Count the new replica count.
	KindScaleOut
	// KindScaleIn is the autoscaler retiring a replica on sustained idle;
	// Job is the tenant id, Name the stopped replica's job name, Count the
	// remaining replica count.
	KindScaleIn
	// KindAllReduce is a gang job's replicas meeting at the step barrier
	// for the topology-priced ring all-reduce: Dur is the modeled sync
	// cost, Count the gang width, Device the gang's first GPU.
	KindAllReduce
	// KindGangPlace is the cluster placing a whole gang all-or-nothing:
	// From is the node, Name the chosen GPU set, Count the gang width, Dur
	// the modeled all-reduce cost of the slot.
	KindGangPlace
	// KindGangPreempt is the scheduler suspending an entire gang because
	// one replica's GPU was claimed: Device is the contended GPU, Count the
	// number of replicas suspended (always the gang width — never a lone
	// worker).
	KindGangPreempt
	// KindGangResume is a displaced gang re-holding every GPU of its
	// binding and restarting as one unit; Count is the gang width.
	KindGangResume

	numKinds
)

// NumKinds is the number of defined event kinds (for sized count arrays).
const NumKinds = int(numKinds) - 1

var kindNames = [numKinds]string{
	KindKernelSpan:  "KernelSpan",
	KindOpSched:     "OpSched",
	KindLaunch:      "Launch",
	KindPreempt:     "Preempt",
	KindResume:      "Resume",
	KindMigrate:     "Migrate",
	KindBatchFuse:   "BatchFuse",
	KindAdmit:       "Admit",
	KindShed:        "Shed",
	KindServe:       "Serve",
	KindFaultInject: "FaultInject",
	KindJobLost:     "JobLost",
	KindCheckpoint:  "Checkpoint",
	KindRestore:     "Restore",
	KindPlace:       "Place",
	KindBind:        "Bind",
	KindRebind:      "Rebind",
	KindResize:      "Resize",
	KindRoute:       "Route",
	KindScaleOut:    "ScaleOut",
	KindScaleIn:     "ScaleIn",
	KindAllReduce:   "AllReduce",
	KindGangPlace:   "GangPlace",
	KindGangPreempt: "GangPreempt",
	KindGangResume:  "GangResume",
}

// String returns the canonical name of the kind.
func (k Kind) String() string {
	if k == 0 || k >= numKinds {
		return "Unknown"
	}
	return kindNames[k]
}

// Event is one record on the spine. Fields beyond Seq/Time/Kind are
// per-kind; unused ones stay at their zero value. Devices are identified
// by their string IDs ("cpu", "gpu:0") rather than device pointers so
// that obs sits below internal/device in the import graph.
type Event struct {
	// Seq is the bus-assigned monotonic sequence number; the total order
	// of the trace and the tie-break for same-instant events.
	Seq uint64
	// Time is the virtual timestamp of emission.
	Time time.Duration
	// Kind classifies the event.
	Kind Kind
	// Ctx is the owning context (job) id; -1 when not job-scoped.
	Ctx int
	// Job is the human-readable job name, when known.
	Job string
	// Device is the device the event concerns ("gpu:0"); destination for
	// migrations and placements.
	Device string
	// From is the source device of a migration, or other origin label.
	From string
	// Name is a per-kind detail: kernel or op name, fault kind, migration
	// or restore reason.
	Name string
	// Start is the beginning of the interval for span-like events
	// (KernelSpan: admission time; Serve: request arrival).
	Start time.Duration
	// Dur is the interval length (KernelSpan: execution; Serve: latency;
	// Launch: predicted solo work).
	Dur time.Duration
	// Count is a per-kind magnitude: batch size for BatchFuse, iterations
	// lost for Restore, SLO-met flag for Serve.
	Count int
}

// Sink consumes events from a Bus. Observe is called synchronously at
// emit, inside the simulation's event loop, in sequence order.
type Sink interface {
	Observe(Event)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Event)

// Observe calls f(e).
func (f SinkFunc) Observe(e Event) { f(e) }

type subscription struct {
	sink Sink
	mask uint32
}

func kindBit(k Kind) uint32 { return 1 << uint(k) }

// MaskAll subscribes a sink to every event kind.
const MaskAll uint32 = 1<<uint(numKinds) - 2 // bits 1..numKinds-1

// Bus is the deterministic multi-subscriber event spine of one
// simulation. Emit assigns the next sequence number and fans the event
// out to matching sinks in subscription order; because all emission
// happens inside a single engine's event loop, no locking is needed and
// the sequence order is reproducible run to run.
//
// Subscriptions are expected to be set up before the simulation runs:
// Emit is a no-op (and does not consume a sequence number) when no sink
// wants the kind, so late subscribers would observe a different
// numbering, not a suffix of the same one.
type Bus struct {
	eng  *sim.Engine
	subs []subscription
	mask uint32 // union of all subscription masks
	seq  uint64
}

// NewBus creates a bus stamping events with eng's virtual clock.
func NewBus(eng *sim.Engine) *Bus {
	return &Bus{eng: eng}
}

// Subscribe registers sink for the given kinds (all kinds when none are
// given). Multiple sinks compose; each receives every matching event.
func (b *Bus) Subscribe(sink Sink, kinds ...Kind) {
	mask := MaskAll
	if len(kinds) > 0 {
		mask = 0
		for _, k := range kinds {
			mask |= kindBit(k)
		}
	}
	b.subs = append(b.subs, subscription{sink: sink, mask: mask})
	b.mask |= mask
}

// Wants reports whether any sink subscribes to kind. Hot paths use it to
// skip event construction entirely when nobody is listening. Safe on a
// nil bus.
func (b *Bus) Wants(k Kind) bool {
	return b != nil && b.mask&kindBit(k) != 0
}

// Active reports whether the bus has any subscriber at all. Safe on a
// nil bus.
func (b *Bus) Active() bool { return b != nil && b.mask != 0 }

// Emit stamps e with the current virtual time and the next sequence
// number, then delivers it to every subscribed sink in subscription
// order. Events nobody wants are dropped without consuming a sequence
// number. Safe on a nil bus.
func (b *Bus) Emit(e Event) {
	if b == nil || b.mask&kindBit(e.Kind) == 0 {
		return
	}
	b.seq++
	e.Seq = b.seq
	e.Time = b.eng.Now()
	for _, s := range b.subs {
		if s.mask&kindBit(e.Kind) != 0 {
			s.sink.Observe(e)
		}
	}
}

// Recorder is a sink that retains events in emission order. With a
// positive cap it keeps only the most recent cap events (a ring), so a
// long-running server can expose a bounded trace window. Alongside the
// window it counts every event it observes by kind, evicted ones
// included, so aggregate queries never need to read the window.
type Recorder struct {
	cap     int
	events  []Event
	start   int // ring head when wrapped
	wrapped bool
	dropped uint64
	counts  [1 << 8]uint64 // indexed by Kind, so no event goes uncounted
}

// NewRecorder creates a recorder retaining at most cap events; cap <= 0
// means unbounded.
func NewRecorder(cap int) *Recorder {
	return &Recorder{cap: cap}
}

// Observe counts e and appends it, evicting the oldest event when the
// cap is reached.
func (r *Recorder) Observe(e Event) {
	r.counts[e.Kind]++
	if r.cap <= 0 || len(r.events) < r.cap {
		if len(r.events) == cap(r.events) && r.cap > 0 {
			r.grow()
		}
		r.events = append(r.events, e)
		return
	}
	r.events[r.start] = e
	r.start++
	if r.start == r.cap {
		r.start = 0
	}
	r.wrapped = true
	r.dropped++
}

// grow doubles a capped window's backing array, but never past the cap.
// append's own growth overshoots a 2^18-event cap by 15% (302,148
// events, 36 MB) and, at its last step, holds a 29 MB old array and the
// 36 MB new one live together.
func (r *Recorder) grow() {
	events := make([]Event, len(r.events), min(max(2*cap(r.events), 64), r.cap))
	copy(events, r.events)
	r.events = events
}

// Events returns the retained events in emission order. The returned
// slice is a copy and safe to hold across further emission.
func (r *Recorder) Events() []Event {
	if !r.wrapped {
		out := make([]Event, len(r.events))
		copy(out, r.events)
		return out
	}
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.start:]...)
	out = append(out, r.events[:r.start]...)
	return out
}

// Len returns the number of retained events.
func (r *Recorder) Len() int { return len(r.events) }

// Dropped returns how many events were evicted by the cap.
func (r *Recorder) Dropped() uint64 { return r.dropped }

// Count returns how many events of kind k the recorder has observed since
// it was created, evicted ones included. Summed over every kind it equals
// Len()+Dropped(). It costs O(1) whatever the window size.
func (r *Recorder) Count(k Kind) uint64 { return r.counts[k] }

// Merge combines per-machine event streams into one deterministic total
// order. Each input stream must already be in its own emission order (the
// order a Recorder returns): nondecreasing Time with monotonically
// increasing Seq. The merged order is by (Time, stream index, Seq) — when
// two machines emit at the same virtual instant, the lower-indexed machine
// (the one a serial loop would have advanced first) comes first, and within
// one machine the bus sequence numbers keep their order. This is the merge
// key the sharded cluster relies on for byte-identical serial-vs-parallel
// traces.
func Merge(streams ...[]Event) []Event {
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	out := make([]Event, 0, total)
	heads := make([]int, len(streams))
	for len(out) < total {
		best := -1
		for i, s := range streams {
			if heads[i] >= len(s) {
				continue
			}
			// Strict < on Time: the lower stream index wins ties by being
			// scanned first.
			if best < 0 || s[heads[i]].Time < streams[best][heads[best]].Time {
				best = i
			}
		}
		out = append(out, streams[best][heads[best]])
		heads[best]++
	}
	return out
}
