package core

import (
	"switchflow/internal/device"
	"switchflow/internal/executor"
	"switchflow/internal/obs"
	"switchflow/internal/threadpool"
)

// This file is the one shard pump every job runs through. A job's
// binding (internal/vnode, after VirtualFlow arXiv:2009.09523) is one
// shard per virtual node: a non-elastic job is a single whole-batch
// vnode, an elastic job splits its batch across several, and a gang is a
// binding whose replicas acquire all-or-nothing and meet at a priced
// ring all-reduce barrier. Each GPU shard acquires its device's arbiter
// (invariant 1, §3.4) before it launches; CPU input stages run freely
// (invariant 2). What differs between jobs is the policy fixed at
// admission (state.go).

// pump advances a job's pipeline; it is called on every relevant state
// change and is idempotent.
func (m *Manager) pump(js *jobState) {
	if !js.live() || js.phase == suspending || js.phase == restarting {
		return
	}
	switch js.pol.input {
	case inputCoupled:
		m.pumpCoupled(js)
		return
	case inputFree:
		m.pumpInput(js)
	}
	m.pumpShards(js)
}

// pumpInput starts the CPU input stage whenever a prefetch slot is free —
// invariant 2: CPU executors run without restriction (§3.4).
func (m *Manager) pumpInput(js *jobState) {
	if m.eng.Now() < m.stallUntil {
		return // input pipelines stalled; handleInputStall re-pumps
	}
	dev := js.dev()
	v, err := js.job.Version(dev)
	if err != nil {
		js.job.Crash(err)
		m.emitJobLost(js, dev, "no graph version")
		return
	}
	if v.Input == nil {
		// All-CPU placement: the compute subgraph includes preprocessing;
		// input slots fill instantly.
		if js.job.CanStartInput() {
			js.job.BeginInput()
			js.job.FinishInput()
		}
		return
	}
	pool := m.poolFor(js)
	for js.job.CanStartInput() {
		js.job.BeginInput()
		_, err := js.job.StartExec(v.Input, executor.Config{Pool: pool}, func() {
			js.job.FinishInput()
			m.pump(js)
		})
		if err != nil {
			js.job.Crash(err)
			m.emitJobLost(js, dev, "input start failed")
			return
		}
	}
}

// pumpCoupled is the DisableFreeCPUExecutors input gate: input and
// compute run back-to-back under the GPU grant, like session-based time
// slicing.
func (m *Manager) pumpCoupled(js *jobState) {
	if !js.weightsReady {
		return
	}
	sh := js.shards[0]
	// A preempted session resumes through the shard pump.
	if sh.run != nil && sh.run.Suspended() {
		m.pumpShards(js)
		return
	}
	if js.job.ComputeRunning || js.job.InputsInFlight > 0 || !js.job.HasWork() {
		return
	}
	if m.eng.Now() < m.stallUntil {
		return // coupled sessions start with input; stalled like pumpInput
	}
	if sh.dev.Kind != device.KindGPU {
		m.pumpInput(js)
		m.pumpShards(js)
		return
	}
	if sh.grant == idle {
		m.request(js, sh)
	}
}

func (m *Manager) runCoupledSession(js *jobState, sh *shardState) {
	v, err := js.job.Version(sh.dev)
	if err != nil {
		m.fail(js, sh, err, "no graph version")
		return
	}
	if !js.job.CanStartInput() && !js.job.InputAvailable() {
		m.releaseShard(sh, idle)
		return
	}
	if !js.job.CanStartInput() {
		m.launch(js, sh)
		return
	}
	js.job.BeginInput()
	if v.Input == nil {
		js.job.FinishInput()
		m.launch(js, sh)
		return
	}
	_, err = js.job.StartExec(v.Input, executor.Config{Pool: m.poolFor(js)}, func() {
		js.job.FinishInput()
		m.launch(js, sh)
	})
	if err != nil {
		m.fail(js, sh, err, "input start failed")
	}
}

// pumpShards is the compute side: apply pending binding ops between
// steps, open the next step when an input is ready, and drive every shard
// toward its grant and launch.
func (m *Manager) pumpShards(js *jobState) {
	if (!js.weightsReady && js.phase != checkpointed) || js.phase == restoring {
		return
	}
	if !js.job.ComputeRunning {
		if m.applyPendingOps(js) {
			// Ops re-split the binding; every op path re-pumps when its
			// transfers land (or pumped inline), so this pass is done.
			m.pump(js)
			return
		}
		if !js.job.InputAvailable() {
			return
		}
		if js.pol.whole {
			if js.job.HoldForBatch() {
				// The micro-batch is still filling; the batch-wait timer
				// (or the next ready input) re-pumps by the deadline. The
				// step itself opens at launch.
				return
			}
		} else {
			js.job.BeginCompute()
			for _, sh := range js.shards {
				if sh.grant == done {
					sh.grant = idle
				}
			}
		}
	}
	if js.pol.ordered && !m.gangHolds(js) {
		return
	}
	for _, sh := range js.shards {
		if sh.grant == done || sh.grant == draining {
			continue
		}
		if sh.run != nil && !sh.run.Suspended() {
			continue // executing
		}
		if js.pol.ordered || sh.dev.Kind != device.KindGPU || m.opts.DisableGPUExclusive || sh.grant.holds() {
			m.launch(js, sh)
			continue
		}
		if sh.grant == idle {
			m.request(js, sh)
		}
	}
}

// gangHolds drives a gang's ordered acquisition and reports whether the
// whole gang holds its GPUs, so every replica may launch. Grants are
// acquired one at a time in ascending GPU index: holding only
// lower-indexed GPUs while waiting is what makes two gangs over
// overlapping GPU sets deadlock-free.
func (m *Manager) gangHolds(js *jobState) bool {
	if js.phase == gangSuspending {
		return false
	}
	allDone := true
	for _, sh := range js.shards {
		if sh.grant != done {
			allDone = false
			break
		}
	}
	if allDone {
		return false // replicas are at the barrier; allReduce owns the step
	}
	if !m.opts.DisableGPUExclusive {
		for _, sh := range js.order {
			switch {
			case sh.grant.holds() || sh.grant == done:
				continue
			case sh.grant == idle:
				m.request(js, sh)
			}
			return false // one request in flight at a time
		}
	}
	if js.phase == gangSuspended {
		js.to(running)
		m.bus.Emit(obs.Event{
			Kind:   obs.KindGangResume,
			Ctx:    js.job.Ctx,
			Job:    js.job.Cfg.Name,
			Device: js.shards[0].dev.String(),
			Count:  len(js.shards),
		})
	}
	return true
}

// request queues a grant request for sh's GPU.
func (m *Manager) request(js *jobState, sh *shardState) {
	sh.grant = waiting
	js.acquiredAt = m.eng.Now()
	m.acquire(sh.dev.Index, js, func() { m.granted(js, sh) })
}

// granted takes sh's grant. A coupled session starts its input under
// the grant; a whole-batch job re-pumps so its micro-batch forms at
// launch, and a gang re-pumps to continue its ordered acquisition; an
// elastic shard launches at once.
func (m *Manager) granted(js *jobState, sh *shardState) {
	sh.grant = held
	switch {
	case js.pol.input == inputCoupled && sh.run == nil:
		m.runCoupledSession(js, sh)
	case js.pol.whole || js.pol.ordered:
		m.pump(js)
	default:
		m.launch(js, sh)
	}
}

// launch starts (or resumes) sh's compute run on its device, restoring a
// checkpointed job first.
func (m *Manager) launch(js *jobState, sh *shardState) {
	if js.phase == checkpointed {
		m.restoreCheckpoint(js, sh)
		return
	}
	if sh.run != nil && sh.run.Suspended() {
		if !m.allocScratch(js, sh) {
			return
		}
		m.bus.Emit(obs.Event{
			Kind:   obs.KindResume,
			Ctx:    js.job.Ctx,
			Job:    js.job.Cfg.Name,
			Device: sh.dev.String(),
		})
		sh.run.Resume()
		return
	}
	v, err := js.job.VNodeVersion(sh.idx)
	if err != nil {
		m.fail(js, sh, err, "no graph version")
		return
	}
	if !m.allocScratch(js, sh) {
		return
	}
	if js.pol.whole {
		js.job.BeginCompute()
	}
	cfg := executor.Config{Pool: m.poolFor(js), Stream: js.job.Stream(sh.dev)}
	run, err := js.job.StartExec(v.Compute, cfg, func() { m.finishShard(js, sh) })
	if err != nil {
		m.fail(js, sh, err, "compute start failed")
		return
	}
	sh.run = run
}

// allocScratch reserves the shard's iteration scratch, sized like the
// graph version it runs.
func (m *Manager) allocScratch(js *jobState, sh *shardState) bool {
	n := js.job.VNodeScratchBytes(sh.idx)
	if err := js.job.AllocScratchBytes(sh.dev, n); err != nil {
		m.fail(js, sh, err, "scratch alloc failed")
		return false
	}
	sh.scratch = n
	return true
}

func (m *Manager) freeScratch(js *jobState, sh *shardState) {
	js.job.FreeScratchBytes(sh.dev, sh.scratch)
	sh.scratch = 0
}

// fail kills the job over a launch error, returning its shard's scratch
// and grant so the device keeps granting.
func (m *Manager) fail(js *jobState, sh *shardState, err error, why string) {
	js.job.Crash(err)
	m.emitJobLost(js, sh.dev, why)
	m.freeScratch(js, sh)
	m.releaseShard(sh, idle)
	if js.group != nil {
		js.group.memberDone()
	}
}

// releaseShard moves sh to grant state next, handing its GPU back when
// it held one.
func (m *Manager) releaseShard(sh *shardState, next grant) {
	was := sh.grant.holds()
	sh.grant = next
	if was {
		m.release(sh.dev.Index)
	}
}

// finishShard retires one shard's run. A whole-batch job's step is this
// run; otherwise the last shard home completes the step, through the
// all-reduce barrier for a multi-replica gang.
func (m *Manager) finishShard(js *jobState, sh *shardState) {
	sh.run = nil
	m.freeScratch(js, sh)
	if js.pol.whole {
		js.job.FinishCompute()
		// Regaining a full iteration on the GPU completes any pending
		// "stay" preemption recovery: back to the global pool.
		if sh.dev.Kind == device.KindGPU {
			js.inTempPool = false
		}
		m.endStep(js, sh)
		return
	}
	m.releaseShard(sh, done)
	for _, s := range js.shards {
		if s.grant != done {
			return
		}
	}
	if js.pol.ordered && len(js.shards) > 1 {
		m.allReduce(js)
		return
	}
	js.job.FinishCompute()
	js.inTempPool = false
	m.pump(js)
}

// endStep releases a whole-batch job's grant after its step. Under the
// checkpoint-preemption ablation a yielding owner first streams its
// state to host memory (Gandiva's suspend path, §6), holding the grant.
func (m *Manager) endStep(js *jobState, sh *shardState) {
	if sh.grant == yielding {
		sh.grant = held
		from := sh.dev
		epoch := js.epoch
		d2h := m.machine.DeviceToHost(from.Index)
		d2h.Transfer(js.job.WeightBytes(), js.job.Cfg.Model.WeightVars(), func() {
			js.job.FreeWeights(from)
			if js.epoch != epoch {
				return // a fault already relocated the job mid-transfer
			}
			m.bus.Emit(obs.Event{
				Kind:   obs.KindCheckpoint,
				Ctx:    js.job.Ctx,
				Job:    js.job.Cfg.Name,
				Device: from.String(),
				Name:   "preempt",
			})
			js.settle(running, checkpointed)
			js.weightsReady = false
			m.releaseShard(sh, idle)
			m.pump(js)
		})
		return
	}
	m.releaseShard(sh, idle)
	m.pump(js)
	if js.group != nil {
		js.group.memberDone()
	}
}

// allReduce meets a gang's replicas at the step barrier: gradients ring
// all-reduce across the binding's devices at the fabric-priced cost, and
// only then does the step commit. Grants are already released — the
// collective rides the interconnect, not the SMs, so other jobs may use
// the GPUs during the sync window.
func (m *Manager) allReduce(js *jobState) {
	sync := js.job.SyncCost()
	m.bus.Emit(obs.Event{
		Kind:   obs.KindAllReduce,
		Ctx:    js.job.Ctx,
		Job:    js.job.Cfg.Name,
		Device: js.shards[0].dev.String(),
		Dur:    sync,
		Count:  len(js.shards),
	})
	epoch := js.epoch
	m.eng.After(sync, func() {
		if js.epoch != epoch || !js.live() || !js.job.ComputeRunning {
			return // a fault or stop tore the step down mid-collective
		}
		js.job.FinishCompute()
		js.inTempPool = false
		m.pump(js)
	})
}

// restoreCheckpoint streams a checkpointed job's state back onto the GPU
// it just re-acquired; the restore occupies the grant — Gandiva's resume
// cost.
func (m *Manager) restoreCheckpoint(js *jobState, sh *shardState) {
	js.to(restoring)
	if err := js.job.AllocWeights(sh.dev); err != nil {
		js.job.Crash(err)
		m.emitJobLost(js, sh.dev, "restore allocation failed")
		js.to(checkpointed)
		m.releaseShard(sh, idle)
		return
	}
	epoch := js.epoch
	h2d := m.machine.HostToDevice(sh.dev.Index)
	h2d.Transfer(js.job.WeightBytes(), js.job.Cfg.Model.WeightVars(), func() {
		if js.epoch != epoch {
			return // a fault already relocated the job mid-transfer
		}
		m.bus.Emit(obs.Event{
			Kind:   obs.KindRestore,
			Ctx:    js.job.Ctx,
			Job:    js.job.Cfg.Name,
			Device: sh.dev.String(),
			Name:   "preempt",
		})
		js.settle(restoring, running)
		js.weightsReady = true
		m.pump(js)
	})
}

// poolFor returns the inter-op pool a job's tasks go to: the temporary
// pool while the job is being isolated after preemption or while it runs
// on CPU.
func (m *Manager) poolFor(js *jobState) *threadpool.Pool {
	if m.opts.DisableTempPoolIsolation {
		return m.global
	}
	if js.inTempPool || js.dev().Kind == device.KindCPU {
		return m.temp
	}
	return m.global
}
