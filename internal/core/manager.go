// Package core implements the SwitchFlow scheduling framework (§3): a
// session manager that shares one global thread pool among all jobs,
// enforces the two scheduling invariants (no two GPU executors co-run on
// one GPU; everything else runs freely), preempts low-priority jobs with
// low latency by aborting queued nodes and letting in-flight kernels
// drain, migrates preempted jobs to replicated executors on other devices
// with asynchronous state transfer, and merges correlated jobs' input
// stages for multi-task learning.
package core

import (
	"fmt"
	"time"

	"switchflow/internal/device"
	"switchflow/internal/metrics"
	"switchflow/internal/obs"
	"switchflow/internal/sim"
	"switchflow/internal/threadpool"
	"switchflow/internal/workload"
)

// Options configure a Manager. The zero value selects the paper's design;
// the booleans exist for the ablation experiments.
type Options struct {
	// TempPoolThreads sizes the temporary pool (§3.3); default 4.
	TempPoolThreads int
	// DisableGPUExclusive turns off scheduling invariant 1 (ablation):
	// GPU executors co-run and contend.
	DisableGPUExclusive bool
	// DisableFreeCPUExecutors turns off invariant 2 (ablation): a job's
	// input stage only runs while it holds the GPU, degenerating into
	// session-based time slicing.
	DisableFreeCPUExecutors bool
	// SyncStateTransfer makes migration state transfer block the
	// preempting job (ablation of §3.3's async design).
	SyncStateTransfer bool
	// DisableTempPoolIsolation keeps preempted jobs on the global pool
	// (ablation): their task dispatch interferes with the preempter.
	DisableTempPoolIsolation bool
	// DisableDynamicBatching clamps serving jobs to single-request compute
	// launches regardless of their MaxBatch (the batching-off arm of the
	// serving experiment). Admission control still applies.
	DisableDynamicBatching bool
	// CheckpointPreemption replaces SwitchFlow's abort-and-resume with
	// Gandiva-style suspend-resume (§6): the victim finishes its current
	// mini-batch, checkpoints its full state to host memory, and restores
	// it before running again — putting hundreds of MiB of transfer on
	// the preemption critical path.
	CheckpointPreemption bool
	// CheckpointEvery, when positive, snapshots every training job's
	// persistent state to host memory at this period (paying the D2H
	// transfer). Fault recovery rolls jobs back to the last snapshot;
	// without snapshots a recovered job restarts from iteration zero.
	CheckpointEvery time.Duration
}

// Manager is the SwitchFlow session manager.
type Manager struct {
	eng     *sim.Engine
	machine *device.Machine
	opts    Options
	global  *threadpool.Pool
	temp    *threadpool.Pool
	// arbs holds one arbiter per GPU, indexed by GPU index. It is a slice,
	// not a map, so every sweep over the arbiters (fault recovery, request
	// purging) runs in ascending device order — map iteration order is
	// randomized and would leak into grant sequencing.
	arbs   []*arbiter
	jobs   []*jobState
	groups []*Group
	ctxSeq int
	// grantSeq orders grant requests FIFO within a priority class. It is
	// per-manager, not package-level, so concurrent experiment cells never
	// share it (and one cell's request order can never leak into another).
	grantSeq int
	// stallUntil gates input-stage starts during an injected input stall.
	stallUntil time.Duration

	// PreemptionLatencies records request-to-grant times for preemptive
	// acquisitions (§5.2.3).
	PreemptionLatencies metrics.Latency
	// Preemptions counts preemption events.
	Preemptions int
	// Migrations counts device migrations.
	Migrations int
	// RecoveryLatencies records fault-to-serving-again times for recovered
	// jobs (device-lost migrations and transient restarts).
	RecoveryLatencies metrics.Latency

	// bus is the machine's observability spine; every scheduling decision
	// is emitted there. faults aggregates the fault/recovery counters from
	// those events instead of being hand-incremented per call site.
	bus    *obs.Bus
	faults metrics.FaultSink
}

// NewManager creates a SwitchFlow manager over the machine. The global
// pool has one worker per core; the temporary pool's threads come out of
// the same core budget (§3.3).
func NewManager(eng *sim.Engine, machine *device.Machine, opts Options) *Manager {
	if opts.TempPoolThreads <= 0 {
		opts.TempPoolThreads = 4
	}
	if opts.TempPoolThreads >= machine.CPU.Cores {
		opts.TempPoolThreads = machine.CPU.Cores / 2
		if opts.TempPoolThreads == 0 {
			opts.TempPoolThreads = 1
		}
	}
	m := &Manager{
		eng:     eng,
		machine: machine,
		opts:    opts,
		global:  threadpool.New(eng, "global", machine.CPU.Cores-opts.TempPoolThreads),
		temp:    threadpool.New(eng, "temporary", opts.TempPoolThreads),
		arbs:    make([]*arbiter, len(machine.GPUs)),
		bus:     machine.Bus(),
	}
	for i := range m.arbs {
		m.arbs[i] = &arbiter{}
	}
	m.bus.Subscribe(&m.faults, metrics.FaultSinkKinds...)
	return m
}

// EventBus returns the observability spine the manager publishes to.
func (m *Manager) EventBus() *obs.Bus { return m.bus }

// FaultCounters returns the fault-injection and recovery counters,
// aggregated from the observability spine.
func (m *Manager) FaultCounters() metrics.FaultCounters { return m.faults.Counters() }

// GlobalPool exposes the shared inter-op worker pool (tests, experiments).
func (m *Manager) GlobalPool() *threadpool.Pool { return m.global }

// TempPool exposes the temporary pool.
func (m *Manager) TempPool() *threadpool.Pool { return m.temp }

// AddJob admits a job: its persistent state is allocated on the preferred
// device up front, so admission fails (rather than the job crashing later)
// when the aggregate weights of collocated models exceed GPU memory —
// SwitchFlow's OOM-freedom contract (§3.4).
func (m *Manager) AddJob(cfg workload.Config) (*workload.Job, error) {
	if m.opts.DisableDynamicBatching {
		cfg.MaxBatch = 0
		cfg.BatchWait = 0
	}
	js, err := m.admit(cfg, false)
	if err != nil {
		return nil, err
	}
	job := js.job
	m.jobs = append(m.jobs, js)
	job.StartArrivals(func() { m.pump(js) })
	m.eng.After(0, func() { m.pump(js) })
	if m.opts.CheckpointEvery > 0 && job.Training() {
		// Admission-time state is durable (weights initialize from host),
		// so the job starts with a valid iteration-zero checkpoint.
		job.RecordCheckpoint()
		m.scheduleCheckpoint(js)
	}
	return job, nil
}

// admit builds a job and allocates one full data-parallel weight replica
// per distinct bound device; admission fails atomically when any replica
// does not fit.
func (m *Manager) admit(cfg workload.Config, member bool) (*jobState, error) {
	m.ctxSeq++
	job, err := workload.NewJob(m.eng, m.machine, m.ctxSeq, cfg)
	if err != nil {
		return nil, err
	}
	devs := job.Binding().Devices()
	for i, dev := range devs {
		if err := job.AllocWeights(dev); err != nil {
			for _, d := range devs[:i] {
				job.FreeWeights(d)
			}
			return nil, fmt.Errorf("core: admit %s: replica on %v: %w", cfg.Name, dev, err)
		}
	}
	js := m.newJobState(job, member)
	if !js.pol.whole {
		for i := 0; i < job.Binding().Len(); i++ {
			m.bus.Emit(obs.Event{
				Kind:   obs.KindBind,
				Ctx:    job.Ctx,
				Job:    cfg.Name,
				Device: job.Binding().Node(i).Device.String(),
				Count:  i,
			})
		}
	}
	return js, nil
}

// StopJob halts a job's loop after its in-flight stages complete.
func (m *Manager) StopJob(job *workload.Job) {
	if js := m.stateOf(job); js != nil {
		if js.phase != stopped {
			js.to(stopped)
		}
		job.StopArrivals()
	}
}

// JobDevice reports the device a job currently runs on (its first
// vnode's).
func (m *Manager) JobDevice(job *workload.Job) device.ID {
	if js := m.stateOf(job); js != nil {
		return js.dev()
	}
	return device.ID{}
}
