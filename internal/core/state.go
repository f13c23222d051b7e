package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"switchflow/internal/device"
	"switchflow/internal/executor"
	"switchflow/internal/workload"
)

// phase is a job's scheduling lifecycle. Every change goes through
// jobState.to, which panics on an edge phaseEdges does not allow.
type phase uint8

const (
	// running: the pump drives the job normally.
	running phase = iota
	// suspending: a single-device job's abort-and-resume preemption is
	// draining in-flight kernels (§3.3). The whole pump is gated, input
	// included, since the job may be about to change device.
	suspending
	// gangSuspending: a gang is being suspended whole; launches and
	// grant requests are gated.
	gangSuspending
	// gangSuspended: a displaced gang re-acquiring its GPUs; the next full
	// hold emits KindGangResume before any replica restarts.
	gangSuspended
	// checkpointed: the Gandiva-style ablation moved the job's state to
	// host memory; its next grant restores it first.
	checkpointed
	// restoring: that restore is in flight, occupying the grant.
	restoring
	// restarting: a transient fault's rollback, backoff and reload.
	restarting
	// stopped: StopJob. Terminal: in-flight drains, transfers and
	// checkpoints still complete, returning grants and memory, but never
	// move the job out of stopped.
	stopped
)

var phaseNames = [...]string{"running", "suspending", "gang-suspending", "gang-suspended",
	"checkpointed", "restoring", "restarting", "stopped"}

func (p phase) String() string { return phaseNames[p] }

// phaseEdges is the transition table. Any phase may stop; stopped is
// terminal.
var phaseEdges = map[phase][]phase{
	// Preemption (abort, whole gang), the Gandiva checkpoint-out, and a
	// transient fault.
	running: {suspending, gangSuspending, checkpointed, restarting},
	// Drained (stay or migrate), or a fault tore the drain down.
	suspending: {running, restarting},
	// Drained; or a fault tore the step down.
	gangSuspending: {gangSuspended, running},
	// Fully re-held (or torn down), or displaced again mid-acquisition.
	gangSuspended: {running, gangSuspending},
	// Granted again, or a transient hit the owner before its restore.
	checkpointed: {restoring, restarting},
	// Restored; the device was lost mid-restore; or a transient.
	restoring: {running, checkpointed, restarting},
	// Reloaded, or the device was lost during the backoff.
	restarting: {running},
}

// canMove reports whether from -> to is a legal edge.
func canMove(from, to phase) bool {
	if to == stopped {
		return from != stopped
	}
	for _, p := range phaseEdges[from] {
		if p == to {
			return true
		}
	}
	return false
}

// to moves the job to phase next, panicking on an illegal edge.
func (js *jobState) to(next phase) {
	if !canMove(js.phase, next) {
		panic(fmt.Sprintf("core: job %q: illegal phase change %v -> %v", js.job.Cfg.Name, js.phase, next))
	}
	js.phase = next
}

// settle ends an in-flight phase: from -> to when the job is still in
// from. A job stopped (or otherwise moved) meanwhile stays where it is.
func (js *jobState) settle(from, to phase) {
	if js.phase == from {
		js.to(to)
	}
}

// grant is one shard's hold on its device's arbiter within a step.
type grant uint8

const (
	// idle: no grant held or requested.
	idle grant = iota
	// waiting: a request is queued at the arbiter.
	waiting
	// held: the shard owns its GPU.
	held
	// yielding: held, but the Gandiva-style ablation asked the owner to
	// finish its step and checkpoint out before releasing.
	yielding
	// draining: held while a preemption drains the shard's kernels.
	draining
	// done: the shard finished its share of the step and released.
	done
)

var grantNames = [...]string{"idle", "waiting", "held", "yielding", "draining", "done"}

func (g grant) String() string { return grantNames[g] }

// holds reports whether the grant owns the device.
func (g grant) holds() bool { return g == held || g == yielding || g == draining }

// preemptMode is how a job yields a contended GPU.
type preemptMode uint8

const (
	// preemptMigrate is §3.3 for single-device jobs: abort the session
	// and migrate to a fallback, or stay and resume. The
	// CheckpointPreemption and SyncStateTransfer ablations apply here.
	preemptMigrate preemptMode = iota
	// preemptShard suspends only the contended shard, which stays and
	// waits for a re-grant (elastic jobs and shared-group members).
	preemptShard
	// preemptGang suspends the whole gang and releases every grant.
	preemptGang
)

// inputGate is where a job's step inputs come from.
type inputGate uint8

const (
	// inputFree runs the job's input stage without restriction
	// (invariant 2).
	inputFree inputGate = iota
	// inputCoupled runs input and compute back to back under the GPU
	// grant (the DisableFreeCPUExecutors ablation).
	inputCoupled
	// inputGroup takes inputs from a shared-input group's stage.
	inputGroup
)

// policy is how the one shard pump drives a job. It is fixed at
// admission from the job's config and the manager's Options.
type policy struct {
	preempt preemptMode
	input   inputGate
	// ordered acquires every shard's grant one at a time in ascending GPU
	// index before any shard launches (gangs), and commits each step only
	// after the priced ring all-reduce barrier.
	ordered bool
	// whole marks a single-device job: one whole-batch shard. Its step
	// forms at launch, after the grant, so a serving micro-batch collects
	// the requests that arrive while it waits, and it changes device as a
	// whole — migration, or restart from its host checkpoint. Otherwise
	// the step opens as soon as an input is ready and fans out to the
	// shards, which rebind vnode by vnode.
	whole bool
}

// policyFor picks a job's policy at admission.
func (m *Manager) policyFor(cfg workload.Config, member bool) policy {
	switch {
	case cfg.Gang:
		return policy{preempt: preemptGang, ordered: true}
	case len(cfg.VNodes) > 0:
		return policy{preempt: preemptShard}
	case member:
		return policy{preempt: preemptShard, input: inputGroup, whole: true}
	case m.opts.DisableFreeCPUExecutors:
		return policy{preempt: preemptMigrate, input: inputCoupled, whole: true}
	}
	return policy{preempt: preemptMigrate, whole: true}
}

// jobState is the scheduler-side state of one job.
type jobState struct {
	job   *workload.Job
	pol   policy
	phase phase
	// weightsReady is false while a weight copy to a new device is in
	// flight (migration, rebind, host restore). It is orthogonal to the
	// phase: a running job keeps prefetching input during the copy, and a
	// copy can be in flight in any phase a fault or stop leaves behind.
	weightsReady bool
	// inTempPool isolates a preempted job's task dispatch in the
	// temporary pool (§3.3) until it completes a full step on a GPU. It
	// outlives the preemption phase: a job that stayed runs in the
	// temporary pool after it resumes.
	inTempPool bool
	acquiredAt time.Duration
	// epoch invalidates stale drain and transfer callbacks after a fault
	// yanks the job off its device mid-flight.
	epoch int

	// shards holds one shard per virtual node of the current binding;
	// order is the gang acquisition order (ascending GPU index).
	shards []*shardState
	order  []*shardState
	// pendingOps are binding mutations queued for the next epoch-safe
	// point.
	pendingOps []func()
	// group is the shared-input group a member belongs to.
	group *Group
}

// shardState is the scheduler-side state of one virtual node.
type shardState struct {
	idx     int
	dev     device.ID
	grant   grant
	run     *executor.Run
	scratch int64
}

// newJobState builds the scheduler state of an admitted job.
func (m *Manager) newJobState(job *workload.Job, member bool) *jobState {
	js := &jobState{job: job, pol: m.policyFor(job.Cfg, member), weightsReady: true}
	m.rebuildShards(js)
	return js
}

// rebuildShards derives fresh shard states from the job's binding. Only
// call at epoch-safe points: any in-flight run must be discarded first.
func (m *Manager) rebuildShards(js *jobState) {
	b := js.job.Binding()
	js.shards = make([]*shardState, b.Len())
	for i := range js.shards {
		js.shards[i] = &shardState{idx: i, dev: b.Node(i).Device}
	}
	if js.pol.ordered {
		js.order = append([]*shardState(nil), js.shards...)
		sort.Slice(js.order, func(i, j int) bool { return js.order[i].dev.Index < js.order[j].dev.Index })
	}
}

// dev is the job's primary device: its first vnode's.
func (js *jobState) dev() device.ID { return js.job.Binding().Node(0).Device }

// shardOn returns the shard holding GPU gpu, nil if none does.
func (js *jobState) shardOn(gpu int) *shardState {
	for _, sh := range js.shards {
		if sh.grant.holds() && sh.dev.Kind == device.KindGPU && sh.dev.Index == gpu {
			return sh
		}
	}
	return nil
}

// live reports whether the job may still start work.
func (js *jobState) live() bool { return js.phase != stopped && !js.job.Crashed() }

// DebugJobState renders a job's scheduler state for diagnostics: its
// phase, isolation, and every shard's device, grant and run progress.
// Shared-group members are found too.
func (m *Manager) DebugJobState(job *workload.Job) string {
	js := m.stateOf(job)
	if js == nil {
		for _, g := range m.groups {
			for _, mem := range g.members {
				if mem.job == job {
					js = mem
				}
			}
		}
	}
	if js == nil {
		return "?"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "phase=%v weights=%v temp=%v", js.phase, js.weightsReady, js.inTempPool)
	for _, sh := range js.shards {
		fmt.Fprintf(&b, " [%d %v %v", sh.idx, sh.dev, sh.grant)
		if sh.run != nil {
			d, total := sh.run.Progress()
			fmt.Fprintf(&b, " run=%d/%d suspended=%v", d, total, sh.run.Suspended())
		}
		b.WriteString("]")
	}
	return b.String()
}
