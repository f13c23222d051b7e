package core

import (
	"fmt"

	"switchflow/internal/device"
	"switchflow/internal/obs"
	"switchflow/internal/vnode"
	"switchflow/internal/workload"
)

// This file owns binding changes. An elastic job's batch is split
// across virtual nodes by internal/vnode; Resize, RebindJob and
// DrainDevice re-split it, and every mutation lands at an epoch-safe
// point — between steps, with no shard in flight — via the job's
// pending-op queue. Each distinct bound device holds a full data-parallel
// weight replica, which is what makes zero-restart healing possible:
// losing one device re-seeds its replacement from a surviving replica
// instead of rolling back to a checkpoint.

// queueOp schedules a binding mutation for the job's next epoch-safe
// point: between steps it applies on the next pump, mid-step it waits
// for the step to complete.
func (m *Manager) queueOp(js *jobState, op func()) {
	js.pendingOps = append(js.pendingOps, op)
	m.pump(js)
}

// applyPendingOps runs queued binding ops while the job sits at an
// epoch-safe point; it reports whether any op ran.
func (m *Manager) applyPendingOps(js *jobState) bool {
	ran := false
	for len(js.pendingOps) > 0 && !js.job.ComputeRunning && js.live() {
		op := js.pendingOps[0]
		js.pendingOps = js.pendingOps[1:]
		op()
		ran = true
	}
	return ran
}

// Resize grows or shrinks a running elastic job to n virtual nodes at
// its next epoch-safe point, re-splitting the batch without a restart.
// New vnodes prefer placeable GPUs not yet in the binding (in index
// order), then time-multiplex the existing set; shrinking drops the
// highest-indexed vnodes and frees replicas on devices left unused.
func (m *Manager) Resize(job *workload.Job, n int) error {
	js := m.stateOf(job)
	if js == nil {
		return fmt.Errorf("core: resize: unknown job")
	}
	if !job.Elastic() {
		return fmt.Errorf("core: resize: job %q was not admitted with virtual nodes", job.Cfg.Name)
	}
	if n < 1 {
		return fmt.Errorf("core: resize: vnode count must be >= 1, got %d", n)
	}
	if n > job.Cfg.Batch {
		return fmt.Errorf("core: resize: %d vnodes exceed batch %d (each needs >= 1 sample)", n, job.Cfg.Batch)
	}
	m.queueOp(js, func() { m.applyResize(js, n) })
	return nil
}

func (m *Manager) applyResize(js *jobState, n int) {
	b := js.job.Binding()
	if n == b.Len() {
		return
	}
	devs := b.DeviceList()
	if n < len(devs) {
		devs = devs[:n]
	} else {
		base := len(devs)
		for i := range m.machine.GPUs {
			if len(devs) >= n {
				break
			}
			d := device.GPUID(i)
			if m.machine.Placeable(d) && !b.Uses(d) {
				devs = append(devs, d)
			}
		}
		for len(devs) < n {
			devs = append(devs, devs[(len(devs)-base)%base])
		}
	}
	// A failed grow leaves the old binding in force; the error surfaced at
	// Resize-call time for everything checkable there.
	_ = m.applyBinding(js, devs, "resize", nil)
}

// RebindJob moves virtual node i of a running elastic job onto dev at
// the job's next epoch-safe point.
func (m *Manager) RebindJob(job *workload.Job, i int, dev device.ID) error {
	js := m.stateOf(job)
	if js == nil {
		return fmt.Errorf("core: rebind: unknown job")
	}
	if !job.Elastic() {
		return fmt.Errorf("core: rebind: job %q was not admitted with virtual nodes", job.Cfg.Name)
	}
	if i < 0 || i >= job.Binding().Len() {
		return fmt.Errorf("core: rebind: vnode %d out of range (%d vnodes)", i, job.Binding().Len())
	}
	if dev.Kind != device.KindGPU || m.machine.GPU(dev.Index) == nil {
		return fmt.Errorf("core: rebind: no such GPU %v", dev)
	}
	if !m.machine.Placeable(dev) {
		return fmt.Errorf("core: rebind: %v is not placeable (failed or draining)", dev)
	}
	m.queueOp(js, func() { m.applyRebindVNode(js, i, dev) })
	return nil
}

func (m *Manager) applyRebindVNode(js *jobState, i int, dev device.ID) {
	b := js.job.Binding()
	if i >= b.Len() || b.Node(i).Device == dev {
		return // the binding changed under the queued op; nothing to do
	}
	devs := b.DeviceList()
	devs[i] = dev
	_ = m.applyBinding(js, devs, "rebind", nil)
}

// DrainDevice marks the GPU as draining and moves every bound virtual
// node off it at each owning job's next epoch-safe point. Elastic jobs
// rebind (paying at most a peer-path replica copy, restart counter
// untouched); single-device jobs migrate gracefully through the same
// machinery preemption migration uses. Jobs with nowhere to go keep
// running on the draining device — drain is administrative, not a fault.
func (m *Manager) DrainDevice(dev device.ID) error {
	if dev.Kind != device.KindGPU || dev.Index < 0 || dev.Index >= len(m.machine.GPUs) {
		return fmt.Errorf("core: drain: no such GPU %v", dev)
	}
	m.machine.GPU(dev.Index).SetDraining(true)
	for _, js := range m.jobs {
		js := js
		if js.live() && js.job.Binding().Uses(dev) {
			m.queueOp(js, func() { m.applyDrain(js, dev) })
		}
	}
	return nil
}

// UndrainDevice clears the drain mark, making the GPU placeable again.
// Bindings moved away by a drain do not move back automatically.
func (m *Manager) UndrainDevice(dev device.ID) error {
	if dev.Kind != device.KindGPU || dev.Index < 0 || dev.Index >= len(m.machine.GPUs) {
		return fmt.Errorf("core: undrain: no such GPU %v", dev)
	}
	m.machine.GPU(dev.Index).SetDraining(false)
	return nil
}

// applyDrain moves the job off a draining device: a single-device job
// migrates to the first fit, an elastic one rebinds its vnodes there
// round-robin over every fit.
func (m *Manager) applyDrain(js *jobState, dev device.ID) {
	if !js.live() || !js.job.Binding().Uses(dev) {
		return // a fault (or an earlier op) already moved it
	}
	targets := m.targets(js, dev, false, true)
	if len(targets) == 0 {
		return // nowhere to go; stay on the draining device
	}
	if js.pol.whole {
		sh := js.shards[0]
		m.purge(js)
		m.releaseShard(sh, idle)
		m.migrate(js, sh, targets[0], "drain", nil)
		return
	}
	_ = m.applyBinding(js, replaceDevice(js.job.Binding().DeviceList(), dev, targets), "drain", nil)
}

// replaceDevice rebinds every vnode on dev to targets, round-robin.
func replaceDevice(devs []device.ID, dev device.ID, targets []device.ID) []device.ID {
	k := 0
	for i, d := range devs {
		if d == dev {
			devs[i] = targets[k%len(targets)]
			k++
		}
	}
	return devs
}

// applyBinding commits a re-split binding at an epoch-safe point: it
// prices the new shares, diffs the replica sets, seeds new devices from
// a surviving replica over the cheap copy path (host restore when no
// replica survives), frees replicas on devices left unused, emits the
// bind/rebind/resize events, and re-pumps when the job is ready.
// onReady, when non-nil, fires once the new binding is runnable.
func (m *Manager) applyBinding(js *jobState, devs []device.ID, reason string, onReady func()) error {
	job := js.job
	old := job.Binding()
	nb, err := vnode.Split(job.Cfg.Batch, devs, job.PricerFor(devs))
	if err != nil {
		return err
	}
	newSet := nb.Devices()
	var gains []device.ID
	for _, d := range newSet {
		if !job.WeightsOn(d) {
			gains = append(gains, d)
		}
	}
	// Pre-flight the memory so a failed grow cannot strand the job with a
	// half-committed binding.
	for _, d := range gains {
		if d.Kind != device.KindGPU {
			continue
		}
		gpu := m.machine.GPU(d.Index)
		if gpu == nil || gpu.Failed() {
			return fmt.Errorf("core: %s: rebind target %v is unusable", job.Cfg.Name, d)
		}
		if gpu.Mem.Available() < job.WeightBytes() {
			return fmt.Errorf("core: %s: no room for a weight replica on %v", job.Cfg.Name, d)
		}
	}
	var src device.ID
	hasSrc := false
	for _, d := range old.Devices() {
		if job.WeightsOn(d) && m.machine.Healthy(d) {
			src, hasSrc = d, true
			break
		}
	}
	var drops []device.ID
	for _, d := range old.Devices() {
		keep := false
		for _, nd := range newSet {
			if nd == d {
				keep = true
				break
			}
		}
		if !keep {
			drops = append(drops, d)
		}
	}

	if nb.Len() != old.Len() {
		name := "grow"
		if nb.Len() < old.Len() {
			name = "shrink"
		}
		m.bus.Emit(obs.Event{
			Kind:   obs.KindResize,
			Ctx:    job.Ctx,
			Job:    job.Cfg.Name,
			Device: nb.Node(0).Device.String(),
			Name:   name,
			Count:  nb.Len(),
		})
	}
	for i := 0; i < nb.Len(); i++ {
		if i >= old.Len() {
			m.bus.Emit(obs.Event{
				Kind:   obs.KindBind,
				Ctx:    job.Ctx,
				Job:    job.Cfg.Name,
				Device: nb.Node(i).Device.String(),
				Count:  i,
			})
			continue
		}
		if od := old.Node(i).Device; od != nb.Node(i).Device {
			m.bus.Emit(obs.Event{
				Kind:   obs.KindRebind,
				Ctx:    job.Ctx,
				Job:    job.Cfg.Name,
				From:   od.String(),
				Device: nb.Node(i).Device.String(),
				Name:   reason,
				Count:  i,
			})
		}
	}

	job.SetBinding(nb)
	m.rebuildShards(js)

	finish := func() {
		for _, d := range drops {
			job.FreeWeights(d)
		}
		js.weightsReady = true
		if onReady != nil {
			onReady()
		}
		m.pump(js)
	}
	if len(gains) == 0 {
		finish()
		return nil
	}
	js.weightsReady = false
	outstanding := len(gains)
	epoch := js.epoch
	bytes := job.WeightBytes()
	tensors := job.Cfg.Model.WeightVars()
	for _, d := range gains {
		if err := job.AllocWeights(d); err != nil {
			// Pre-flight said it fits; failing here means the device model
			// changed underneath the op — treat it as fatal for the job.
			job.Crash(fmt.Errorf("core: %s: replica alloc on %v: %w", job.Cfg.Name, d, err))
			m.emitJobLost(js, d, "replica allocation failed")
			return nil
		}
		done := func() {
			if js.epoch != epoch || !js.live() {
				return
			}
			outstanding--
			if outstanding == 0 {
				finish()
			}
		}
		if d.Kind != device.KindGPU {
			m.eng.After(0, done)
			continue
		}
		if hasSrc {
			path, err := m.machine.CopyPath(src, d)
			if err == nil {
				path.Transfer(bytes, tensors, done)
				continue
			}
		}
		m.machine.HostToDevice(d.Index).Transfer(bytes, tensors, done)
	}
	return nil
}

// stateOf finds the scheduler state of a job.
func (m *Manager) stateOf(job *workload.Job) *jobState {
	for _, js := range m.jobs {
		if js.job == job {
			return js
		}
	}
	return nil
}
