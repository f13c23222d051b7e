package core

import (
	"fmt"
	"time"

	"switchflow/internal/device"
	"switchflow/internal/fault"
	"switchflow/internal/obs"
)

// This file is SwitchFlow's self-healing path (§3.4, §5.2 under induced
// faults): the manager implements fault.Handler, reacting to device loss
// by rebinding elastic jobs and migrating single-device ones through
// their configured Fallbacks with state restored from host checkpoints,
// to transient kernel/ECC errors by replica re-seeding or
// crash-and-restart with exponential backoff, and to input stalls by
// pausing the input pipelines while compute drains prefetched batches.

var _ fault.Handler = (*Manager)(nil)

// HandleFault implements fault.Handler. The injector has already applied
// the hardware effect (a lost GPU is failed and its memory invalidated)
// when this runs.
func (m *Manager) HandleFault(ev fault.Event) {
	dev := ""
	if ev.Device != (device.ID{}) {
		dev = ev.Device.String()
	}
	m.bus.Emit(obs.Event{
		Kind:   obs.KindFaultInject,
		Ctx:    -1,
		Device: dev,
		Name:   ev.Kind.String(),
	})
	switch ev.Kind {
	case fault.KindDeviceLost:
		m.handleDeviceLost(ev.Device)
	case fault.KindTransient:
		m.handleTransient(ev.Device)
	case fault.KindInputStall:
		m.handleInputStall(ev.Duration)
	case fault.KindDegraded:
		// Hardware effect only: kernels on the device run slower until it
		// heals; no job state is at risk.
	}
}

// handleDeviceLost relocates every job bound to the lost device. Its
// in-flight step is torn down, then an elastic job heals by rebinding
// the lost vnodes (surviving replicas re-seed them: no rollback, no
// Restarts increment), while a single-device job — whose only replica is
// gone — migrates to a healthy fallback and restores from the host
// checkpoint (the cheap peer path of §3.3 is unavailable). Jobs with
// nowhere to go crash: even SwitchFlow cannot run a job with nowhere to
// put it.
func (m *Manager) handleDeviceLost(dev device.ID) {
	if dev.Kind != device.KindGPU || dev.Index >= len(m.machine.GPUs) {
		return
	}
	// The arbiter's grant queue only ever holds jobs computing on this GPU;
	// every one of them is about to be relocated or crashed, so the whole
	// arbiter resets.
	m.arbs[dev.Index] = &arbiter{}
	faultAt := m.eng.Now()
	for _, js := range m.jobs {
		// Any job may hold stale weight bytes on the lost device (e.g. a
		// migration source not yet freed); the pool was invalidated
		// wholesale, so drop the accounting rather than double-freeing.
		js.job.ForgetDevice(dev)
		if !js.live() || !js.job.Binding().Uses(dev) {
			continue
		}
		js.epoch++
		m.discardStep(js, dev)
		if js.pol.whole {
			m.restartElsewhere(js, dev, faultAt)
			continue
		}
		targets := m.targets(js, dev, false, true)
		if len(targets) == 0 {
			js.job.Crash(fmt.Errorf("core: %s: device %v lost with no healthy rebind target", js.job.Cfg.Name, dev))
			m.emitJobLost(js, dev, "no healthy rebind target")
			continue
		}
		devs := replaceDevice(js.job.Binding().DeviceList(), dev, targets)
		err := m.applyBinding(js, devs, "fault", func() {
			m.RecoveryLatencies.Add(m.eng.Now() - faultAt)
		})
		if err != nil {
			js.job.Crash(fmt.Errorf("core: %s: heal after losing %v: %w", js.job.Cfg.Name, dev, err))
			m.emitJobLost(js, dev, "rebind failed")
		}
	}
}

// restartElsewhere moves a single-device job off its lost device to the
// first fitting configured fallback — surviving beats avoiding
// contention, so the owner's priority is ignored — rolling back to its
// last host checkpoint.
func (m *Manager) restartElsewhere(js *jobState, lost device.ID, faultAt time.Duration) {
	targets := m.targets(js, lost, false, false)
	if len(targets) == 0 {
		js.job.Crash(fmt.Errorf("core: %s: %w (%v, no healthy fallback)",
			js.job.Cfg.Name, fault.ErrDeviceLost, lost))
		m.emitJobLost(js, lost, "no healthy fallback")
		return
	}
	to := targets[0]
	m.Migrations++
	m.bus.Emit(obs.Event{
		Kind:   obs.KindMigrate,
		Ctx:    js.job.Ctx,
		Job:    js.job.Cfg.Name,
		From:   lost.String(),
		Device: to.String(),
		Name:   "fault",
	})
	js.job.Restarted()
	m.bus.Emit(obs.Event{
		Kind:   obs.KindRestore,
		Ctx:    js.job.Ctx,
		Job:    js.job.Cfg.Name,
		Device: to.String(),
		Name:   "device-lost",
		Count:  js.job.RollbackToCheckpoint(),
	})
	m.moveWhole(js, js.shards[0], to)
	if js.phase == checkpointed {
		// Gandiva-mode job already checkpointed out to host memory; the
		// normal restore path rebuilds it on the new device.
		m.pump(js)
		return
	}
	m.restoreFromHost(js, faultAt)
}

// discardStep tears down a job's in-flight step after a fault: every
// shard run is discarded, scratch freed, grants released (except on
// lost, whose arbiter the fault handler reset wholesale) and queued grant
// requests purged; the consumed input returns to the ready pool, and any
// suspension or restart in progress ends.
func (m *Manager) discardStep(js *jobState, lost device.ID) {
	for _, sh := range js.shards {
		if sh.run != nil {
			sh.run.Discard()
			sh.run = nil
		}
		m.freeScratch(js, sh)
		if sh.grant.holds() && sh.dev != lost {
			m.release(sh.dev.Index)
		}
		sh.grant = idle
	}
	m.purge(js)
	if js.job.ComputeRunning {
		js.job.AbandonCompute()
	}
	switch js.phase {
	case suspending, gangSuspending, gangSuspended, restarting:
		js.to(running)
	case restoring:
		js.to(checkpointed)
	}
}

// restoreFromHost rebuilds a job's state on its device from the host
// checkpoint: allocate weights, pay the H2D transfer (free for CPU
// placements — host state is already in host memory), then resume.
func (m *Manager) restoreFromHost(js *jobState, faultAt time.Duration) {
	dev := js.dev()
	if _, err := js.job.Version(dev); err != nil {
		js.job.Crash(err)
		m.emitJobLost(js, dev, "no graph version")
		return
	}
	if err := js.job.AllocWeights(dev); err != nil {
		js.job.Crash(fmt.Errorf("core: restore %s: %w", js.job.Cfg.Name, err))
		m.emitJobLost(js, dev, "restore allocation failed")
		return
	}
	js.weightsReady = false
	epoch := js.epoch
	finish := func() {
		if js.epoch != epoch || !js.live() {
			return
		}
		js.weightsReady = true
		if dev.Kind == device.KindGPU {
			js.inTempPool = false
		}
		m.RecoveryLatencies.Add(m.eng.Now() - faultAt)
		m.pump(js)
	}
	if dev.Kind != device.KindGPU {
		m.eng.After(0, finish)
		return
	}
	h2d := m.machine.HostToDevice(dev.Index)
	h2d.Transfer(js.job.WeightBytes(), js.job.Cfg.Model.WeightVars(), finish)
}

// handleTransient recovers the job the transient kernel/ECC fault on dev
// hits. Its in-flight step is corrupted and discarded. With a surviving
// sibling replica the corrupted one is re-seeded over the peer path — no
// rollback, no restart. Otherwise the corruption took the only copy: the
// job rolls back to its last checkpoint, backs off exponentially in
// virtual time, reloads its weights from the host checkpoint (ECC faults
// taint device state), and resumes. The hardware itself stays usable, so
// no migration happens.
func (m *Manager) handleTransient(dev device.ID) {
	js := m.transientVictim(dev)
	if js == nil {
		return
	}
	js.epoch++
	m.discardStep(js, device.ID{})
	faultAt := m.eng.Now()
	epoch := js.epoch
	if js.job.WeightsOn(dev) {
		for _, src := range js.job.Binding().Devices() {
			if src == dev || !js.job.WeightsOn(src) || !m.machine.Healthy(src) {
				continue
			}
			path, err := m.machine.CopyPath(src, dev)
			if err != nil {
				break
			}
			js.weightsReady = false
			m.bus.Emit(obs.Event{
				Kind:   obs.KindRestore,
				Ctx:    js.job.Ctx,
				Job:    js.job.Cfg.Name,
				Device: dev.String(),
				From:   src.String(),
				Name:   "replica-sync",
			})
			path.Transfer(js.job.WeightBytes(), js.job.Cfg.Model.WeightVars(), func() {
				if js.epoch != epoch || !js.live() {
					return
				}
				js.weightsReady = true
				m.RecoveryLatencies.Add(m.eng.Now() - faultAt)
				m.pump(js)
			})
			return
		}
	}
	js.to(restarting)
	js.job.Restarted()
	m.bus.Emit(obs.Event{
		Kind:   obs.KindRestore,
		Ctx:    js.job.Ctx,
		Job:    js.job.Cfg.Name,
		Device: dev.String(),
		Name:   "transient",
		Count:  js.job.RollbackToCheckpoint(),
	})
	backoff := js.job.NextRestartBackoff()
	m.eng.After(backoff, func() {
		if js.epoch != epoch || !js.live() {
			return
		}
		finish := func() {
			if js.epoch != epoch || !js.live() {
				return
			}
			js.to(running)
			m.RecoveryLatencies.Add(m.eng.Now() - faultAt)
			m.pump(js)
		}
		if dev.Kind == device.KindGPU && m.machine.Healthy(dev) {
			m.machine.HostToDevice(dev.Index).Transfer(js.job.WeightBytes(), js.job.Cfg.Model.WeightVars(), finish)
			return
		}
		finish()
	})
}

// transientVictim picks the job the fault hits: the device's current
// owner, else the first job with state exposed there — bound to the
// device with compute in flight or weights resident (an ECC error
// corrupts resident memory just as well as a running kernel). Admission
// order keeps the choice deterministic.
func (m *Manager) transientVictim(dev device.ID) *jobState {
	if dev.Kind == device.KindGPU && dev.Index < len(m.arbs) {
		if owner := m.arbs[dev.Index].owner; owner != nil && owner.live() && owner.phase != restarting {
			return owner
		}
	}
	for _, js := range m.jobs {
		if !js.live() || js.phase == restarting || !js.job.Binding().Uses(dev) {
			continue
		}
		if js.job.ComputeRunning || js.job.WeightsOn(dev) {
			return js
		}
		for _, sh := range js.shards {
			if sh.run != nil {
				return js
			}
		}
	}
	return nil
}

// scheduleCheckpoint arms the next periodic host checkpoint for a
// training job (Options.CheckpointEvery).
func (m *Manager) scheduleCheckpoint(js *jobState) {
	m.eng.After(m.opts.CheckpointEvery, func() { m.takeCheckpoint(js) })
}

// takeCheckpoint snapshots the job's persistent state to host memory,
// paying the D2H transfer when the state lives on a healthy GPU. The
// snapshot is durable (RecordCheckpoint) once the transfer lands; faults
// striking mid-transfer leave the previous checkpoint in force.
func (m *Manager) takeCheckpoint(js *jobState) {
	if !js.live() {
		return
	}
	dev := js.dev()
	bytes := js.job.CheckpointBytes()
	onGPU := dev.Kind == device.KindGPU && m.machine.Healthy(dev) &&
		js.phase != checkpointed && js.weightsReady
	if bytes == 0 || !onGPU {
		// State already host-resident (CPU placement, Gandiva checkpoint-out,
		// or mid-restore) — the snapshot is free.
		js.job.RecordCheckpoint()
		m.emitCheckpoint(js)
		m.scheduleCheckpoint(js)
		return
	}
	d2h := m.machine.DeviceToHost(dev.Index)
	epoch := js.epoch
	d2h.Transfer(bytes, js.job.Cfg.Model.WeightVars(), func() {
		if !js.live() {
			return
		}
		if js.epoch == epoch {
			js.job.RecordCheckpoint()
			m.emitCheckpoint(js)
		}
		m.scheduleCheckpoint(js)
	})
}

// emitJobLost publishes a job death (a fault with no recovery path).
func (m *Manager) emitJobLost(js *jobState, dev device.ID, why string) {
	m.bus.Emit(obs.Event{
		Kind:   obs.KindJobLost,
		Ctx:    js.job.Ctx,
		Job:    js.job.Cfg.Name,
		Device: dev.String(),
		Name:   why,
	})
}

// emitCheckpoint publishes a durable periodic host snapshot.
func (m *Manager) emitCheckpoint(js *jobState) {
	m.bus.Emit(obs.Event{
		Kind:   obs.KindCheckpoint,
		Ctx:    js.job.Ctx,
		Job:    js.job.Cfg.Name,
		Device: js.dev().String(),
		Name:   "periodic",
	})
}

// handleInputStall pauses every job's input pipeline until the stall
// window passes; compute keeps draining already-prefetched batches
// (invariant 2 in reverse — the GPU stays busy while the CPU side is
// starved). Overlapping stalls extend the window.
func (m *Manager) handleInputStall(d time.Duration) {
	until := m.eng.Now() + d
	if until <= m.stallUntil {
		return
	}
	m.stallUntil = until
	m.eng.Schedule(until, func() {
		if m.eng.Now() < m.stallUntil {
			return // a longer stall superseded this one
		}
		for _, js := range m.jobs {
			m.pump(js)
		}
	})
}
