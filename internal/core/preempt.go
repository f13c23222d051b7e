package core

import (
	"sort"

	"switchflow/internal/device"
	"switchflow/internal/obs"
	"switchflow/internal/vnode"
)

// arbiter serializes GPU executors on one GPU (scheduling invariant 1) and
// implements priority preemption.
type arbiter struct {
	owner *jobState
	queue []*grantReq
}

type grantReq struct {
	js      *jobState
	onGrant func()
	seq     int
}

// acquire requests exclusive use of GPU gpu for js. onGrant fires when the
// device is granted. A higher-priority request preempts the current owner
// (§3.3); equal or lower priority waits FIFO within its priority class.
func (m *Manager) acquire(gpu int, js *jobState, onGrant func()) {
	arb := m.arbs[gpu]
	m.grantSeq++
	req := &grantReq{js: js, onGrant: onGrant, seq: m.grantSeq}
	if arb.owner == nil {
		arb.owner = js
		m.recordGrant(js)
		onGrant()
		return
	}
	arb.queue = append(arb.queue, req)
	sort.SliceStable(arb.queue, func(i, j int) bool {
		pi, pj := arb.queue[i].js.job.Cfg.Priority, arb.queue[j].js.job.Cfg.Priority
		if pi != pj {
			return pi > pj
		}
		return arb.queue[i].seq < arb.queue[j].seq
	})
	if js.job.Cfg.Priority > arb.owner.job.Cfg.Priority {
		m.preempt(gpu, arb.owner)
	}
}

// release frees the GPU and grants the highest-priority waiter.
func (m *Manager) release(gpu int) {
	arb := m.arbs[gpu]
	arb.owner = nil
	if len(arb.queue) == 0 {
		return
	}
	req := arb.queue[0]
	arb.queue = arb.queue[1:]
	arb.owner = req.js
	m.recordGrant(req.js)
	req.onGrant()
}

func (m *Manager) recordGrant(js *jobState) {
	m.PreemptionLatencies.Add(m.eng.Now() - js.acquiredAt)
}

// purge removes every queued grant request of js from every arbiter, so
// a grant cannot fire into a job that is being torn down or displaced,
// and returns its waiting shards to idle.
func (m *Manager) purge(js *jobState) {
	for _, arb := range m.arbs {
		kept := arb.queue[:0]
		for _, req := range arb.queue {
			if req.js != js {
				kept = append(kept, req)
			}
		}
		for i := len(kept); i < len(arb.queue); i++ {
			arb.queue[i] = nil
		}
		arb.queue = kept
	}
	for _, sh := range js.shards {
		if sh.grant == waiting {
			sh.grant = idle
		}
	}
}

// emitPreempt publishes a preemption decision: the victim, the device it
// is displaced from, and the protocol used ("abort" for SwitchFlow's
// abort-and-resume, "gang" for a whole-gang suspension, "checkpoint" for
// the Gandiva-style ablation).
func (m *Manager) emitPreempt(gpu int, victim *jobState, how string) {
	m.bus.Emit(obs.Event{
		Kind:   obs.KindPreempt,
		Ctx:    victim.job.Ctx,
		Job:    victim.job.Cfg.Name,
		Device: device.GPUID(gpu).String(),
		Name:   how,
	})
}

// preempt displaces victim from GPU gpu. Queued nodes are aborted from
// the thread pools and the stream's backlog is dropped; in-flight kernels
// drain (the only component on the new job's critical path, §5.2.3).
// The victim's policy decides what is suspended and what happens next:
//
//   - preemptMigrate (single-device jobs): the session suspends; once
//     drained the job migrates to a fallback device or stays in the
//     temporary pool until it regains the GPU (§3.3). Under the
//     CheckpointPreemption ablation the owner instead finishes its
//     mini-batch and checkpoints out (Gandiva, §6).
//   - preemptShard (elastic jobs, shared-group members): only the shard
//     on the contended GPU suspends; siblings keep computing, and the
//     shard stays to resume on re-grant. Rebinding is an explicit
//     control-plane decision, never a preemption side effect.
//   - preemptGang: every replica suspends and every grant releases. A
//     lone displaced replica would stall its siblings at the all-reduce
//     barrier while they sit on GPUs other jobs need; the gang re-enters
//     through ordered acquisition and resumes as one unit.
func (m *Manager) preempt(gpu int, victim *jobState) {
	sh := victim.shardOn(gpu)
	if sh == nil || sh.grant == draining {
		return // already being displaced
	}
	if victim.pol.preempt == preemptMigrate && m.opts.CheckpointPreemption {
		// No abort; the grant follows the checkpoint transfer (endStep).
		if sh.grant != yielding {
			sh.grant = yielding
			m.Preemptions++
			m.emitPreempt(gpu, victim, "checkpoint")
		}
		return
	}
	gang := victim.pol.preempt == preemptGang
	m.Preemptions++
	if gang {
		m.emitPreempt(gpu, victim, "gang")
		m.bus.Emit(obs.Event{
			Kind:   obs.KindGangPreempt,
			Ctx:    victim.job.Ctx,
			Job:    victim.job.Cfg.Name,
			Device: device.GPUID(gpu).String(),
			Count:  len(victim.shards),
		})
		if victim.phase != stopped {
			victim.to(gangSuspending)
		}
	} else {
		m.emitPreempt(gpu, victim, "abort")
		if victim.pol.preempt == preemptMigrate && victim.phase != stopped {
			victim.to(suspending)
		}
	}
	if !m.opts.DisableTempPoolIsolation {
		victim.inTempPool = true
	}

	epoch := victim.epoch
	// The sweep holds one reference so a synchronous drain cannot resume
	// the gang before every replica has been visited.
	outstanding := 1
	gangDrained := func() {
		outstanding--
		if outstanding > 0 || victim.epoch != epoch {
			return
		}
		victim.settle(gangSuspending, gangSuspended)
		m.pump(victim)
	}
	for _, s := range victim.shards {
		s := s
		if gang && (s.run == nil || s.run.Suspended() || s.grant == done) {
			// Replica merely holding (or done, or still queued): hand the
			// grant back now.
			if s.grant.holds() {
				m.releaseShard(s, idle)
			}
			continue
		}
		if !gang && s != sh {
			continue
		}
		s.grant = draining
		drained := func() {
			if victim.epoch != epoch {
				// A fault relocated the victim while its kernels drained;
				// the fault handler already settled the arbiter.
				return
			}
			// The iteration's intermediate data is discarded either way,
			// freeing the bulk of GPU memory for the preempter (§3.4); the
			// resumed run reallocates it.
			m.freeScratch(victim, s)
			if gang {
				m.releaseShard(s, idle)
				gangDrained()
				return
			}
			m.yieldGPU(gpu, victim, s)
		}
		if gang {
			outstanding++
		}
		if s.run != nil {
			s.run.Suspend(drained)
			continue
		}
		// Owner was granted but has not launched (e.g. waiting on input);
		// nothing to drain.
		m.eng.After(0, drained)
	}
	if gang {
		m.purge(victim)
		m.eng.After(0, gangDrained)
	}
}

// yieldGPU hands a drained shard's GPU to the preempter. A single-device
// job migrates when a fallback fits, discarding the partial iteration
// (its tasks repopulate a fresh session there) but keeping the prefetched
// input; otherwise the shard stays and its suspended run resumes on
// re-grant — no work is lost (§3.3).
func (m *Manager) yieldGPU(gpu int, victim *jobState, sh *shardState) {
	sh.grant = idle
	release := func() {
		victim.settle(suspending, running)
		m.release(gpu)
		m.pump(victim)
	}
	if victim.pol.preempt == preemptMigrate {
		if to := m.targets(victim, sh.dev, true, false); len(to) > 0 {
			if sh.run != nil {
				sh.run.Discard()
				sh.run = nil
			}
			if victim.job.ComputeRunning {
				victim.job.AbandonCompute()
			}
			if m.opts.SyncStateTransfer {
				// Ablation: the state transfer joins the preemption
				// critical path — the new job waits for it.
				m.migrate(victim, sh, to[0], "preempt", release)
				return
			}
			m.migrate(victim, sh, to[0], "preempt", nil)
		}
	}
	release()
}

// targets lists where js's work may move, in preference order: devices
// its binding already uses (a replica is resident — zero transfer), its
// configured fallbacks, then — with anyGPU — every GPU. A candidate must
// differ from exclude and be placeable; a GPU must have room for a
// weight replica unless one is resident; with yield, a GPU whose current
// owner outranks js is skipped (it would preempt js straight back).
// Share-split bindings move between GPUs only.
func (m *Manager) targets(js *jobState, exclude device.ID, yield, anyGPU bool) []device.ID {
	var out []device.ID
	add := func(d device.ID) {
		if d == exclude || !m.machine.Placeable(d) {
			return
		}
		for _, e := range out {
			if e == d {
				return
			}
		}
		if d.Kind != device.KindGPU {
			if js.pol.whole {
				out = append(out, d)
			}
			return
		}
		if !js.job.WeightsOn(d) && m.machine.GPU(d.Index).Mem.Available() < js.job.WeightBytes() {
			return
		}
		if owner := m.arbs[d.Index].owner; yield && owner != nil &&
			owner.job.Cfg.Priority > js.job.Cfg.Priority {
			return
		}
		out = append(out, d)
	}
	for _, d := range js.job.Binding().Devices() {
		add(d)
	}
	for _, d := range js.job.Cfg.Fallbacks {
		add(d)
	}
	if anyGPU {
		for i := range m.machine.GPUs {
			add(device.GPUID(i))
		}
	}
	return out
}

// migrate moves a single-device job's shard to dev: weights are copied
// off the preemption critical path; the source GPU retains the weight
// bytes until the transfer completes (§3.3, Table 1). reason tags the
// migrate event ("preempt", "drain"); onDone, when non-nil, fires at
// transfer completion (used by the synchronous-transfer ablation).
func (m *Manager) migrate(js *jobState, sh *shardState, to device.ID, reason string, onDone func()) {
	from := sh.dev
	if _, err := js.job.Version(to); err != nil {
		js.job.Crash(err)
		m.emitJobLost(js, to, "no graph version")
		return
	}
	if err := js.job.AllocWeights(to); err != nil {
		// No room after all; stay and wait instead.
		if onDone != nil {
			onDone()
		}
		return
	}
	m.Migrations++
	m.bus.Emit(obs.Event{
		Kind:   obs.KindMigrate,
		Ctx:    js.job.Ctx,
		Job:    js.job.Cfg.Name,
		From:   from.String(),
		Device: to.String(),
		Name:   reason,
	})
	m.moveWhole(js, sh, to)
	js.weightsReady = false
	path, err := m.machine.CopyPath(from, to)
	if err != nil {
		js.job.Crash(err)
		m.emitJobLost(js, to, "no copy path")
		return
	}
	epoch := js.epoch
	path.Transfer(js.job.WeightBytes(), js.job.Cfg.Model.WeightVars(), func() {
		// Safe even if a fault took `from` down mid-transfer: ForgetDevice
		// zeroed the accounting, so this free is a no-op there.
		js.job.FreeWeights(from)
		if js.epoch != epoch {
			// A fault relocated the job again; its handler owns the state
			// now, but the sync-ablation release must still run so the
			// source GPU's arbiter keeps granting.
			if onDone != nil {
				onDone()
			}
			return
		}
		js.weightsReady = true
		if to.Kind == device.KindGPU {
			js.inTempPool = false
		}
		m.pump(js)
		if onDone != nil {
			onDone()
		}
	})
}

// moveWhole rebinds a single-device job's one whole-batch vnode to dev.
// The shard has no run in flight (it was drained and discarded, torn
// down by a fault, or the job sits at an epoch-safe point).
func (m *Manager) moveWhole(js *jobState, sh *shardState, dev device.ID) {
	js.job.SetBinding(vnode.Single(dev, js.job.Cfg.Batch))
	sh.dev = dev
}
