package switchflow

import (
	"errors"
	"fmt"
	"time"

	"switchflow/internal/device"
	"switchflow/internal/models"
	"switchflow/internal/obs"
	"switchflow/internal/sim"
	"switchflow/internal/workload"
)

// MachineSpec selects one of the paper's testbeds or a custom layout.
type MachineSpec struct {
	build func(eng *sim.Engine) *device.Machine
	name  string
}

// Name returns a human-readable machine description.
func (m MachineSpec) Name() string { return m.name }

// V100Server is the 4x Tesla V100 server of §5.1.
func V100Server() MachineSpec {
	return MachineSpec{build: device.NewV100Server, name: "4x Tesla V100"}
}

// NVLinkV100Server is the 4x Tesla V100 server with NVLink pairs: GPUs
// {0,1} and {2,3} form NVLink islands; cross-island traffic rides PCIe.
// Gang-scheduled jobs sync gradients measurably faster on an island.
func NVLinkV100Server() MachineSpec {
	return MachineSpec{build: device.NewNVLinkV100Server, name: "4x Tesla V100 (NVLink pairs)"}
}

// TwoGPUServer is the GTX 1080 Ti (gpu:0) + RTX 2080 Ti (gpu:1) server.
func TwoGPUServer() MachineSpec {
	return MachineSpec{build: device.NewTwoGPUServer, name: "GTX 1080 Ti + RTX 2080 Ti"}
}

// JetsonTX2 is the embedded board.
func JetsonTX2() MachineSpec {
	return MachineSpec{build: device.NewJetsonTX2, name: "Jetson TX2"}
}

// SingleGPU builds a one-GPU Xeon server of the named GPU model:
// "V100", "RTX 2080 Ti", "GTX 1080 Ti", or "Jetson TX2".
func SingleGPU(gpu string) (MachineSpec, error) {
	var class device.GPUClass
	cpu := device.ClassXeonDual
	switch gpu {
	case "V100":
		class = device.ClassV100
	case "RTX 2080 Ti":
		class = device.ClassRTX2080Ti
	case "GTX 1080 Ti":
		class = device.ClassGTX1080Ti
	case "Jetson TX2":
		class = device.ClassJetsonTX2
		cpu = device.ClassCortexA57
	default:
		return MachineSpec{}, fmt.Errorf("switchflow: unknown GPU %q", gpu)
	}
	return MachineSpec{
		build: func(eng *sim.Engine) *device.Machine {
			return device.NewMachine(eng, cpu, class)
		},
		name: gpu,
	}, nil
}

// Simulation owns the virtual clock and one machine. All schedulers and
// jobs created from it share both.
type Simulation struct {
	eng     *sim.Engine
	machine *device.Machine
	spec    MachineSpec
}

// NewSimulation creates a simulation over the given machine.
func NewSimulation(spec MachineSpec) *Simulation {
	eng := sim.NewEngine()
	return &Simulation{eng: eng, machine: spec.build(eng), spec: spec}
}

// Now returns the current virtual time.
func (s *Simulation) Now() time.Duration { return s.eng.Now() }

// EventBus returns the simulation's observability spine: every device,
// executor, scheduler, serving and fault event of this simulation is
// published there. Subscribe sinks (e.g. an obs.Recorder for Chrome-trace
// export) before running the simulation so the event numbering is
// complete.
func (s *Simulation) EventBus() *obs.Bus { return s.machine.Bus() }

// RunFor advances virtual time by d, executing everything scheduled.
func (s *Simulation) RunFor(d time.Duration) { s.eng.RunFor(d) }

// RunUntil advances virtual time to t.
func (s *Simulation) RunUntil(t time.Duration) { s.eng.RunUntil(t) }

// RunWhile advances time until cond returns false or the horizon passes.
func (s *Simulation) RunWhile(horizon time.Duration, cond func() bool) {
	for s.eng.Now() < horizon && cond() {
		if !s.eng.Step() {
			return
		}
	}
}

// GPUCount returns the number of GPUs on the machine.
func (s *Simulation) GPUCount() int { return len(s.machine.GPUs) }

// GPUBusy returns the accumulated kernel-busy time of GPU i.
func (s *Simulation) GPUBusy(i int) time.Duration {
	gpu := s.machine.GPU(i)
	if gpu == nil {
		return 0
	}
	return gpu.BusyTime()
}

// GPUMemoryUsed returns the bytes currently allocated on GPU i.
func (s *Simulation) GPUMemoryUsed(i int) int64 {
	gpu := s.machine.GPU(i)
	if gpu == nil {
		return 0
	}
	return gpu.Mem.Used()
}

// Models lists the zoo's model names.
func Models() []string { return models.Names() }

// CPUDevice is the Placement.Device value selecting the CPU instead of a
// GPU. Serving jobs may run CPU-only; training jobs may not.
const CPUDevice = -1

// Placement describes where a job runs: its primary device, migration
// fallbacks, and — for elastic training jobs — the virtual nodes its
// batch splits across. The zero value means "GPU 0, no fallbacks".
type Placement struct {
	// Device is the primary device: a GPU index, or CPUDevice.
	Device int
	// Fallbacks are migration targets in preference order (GPU indices).
	Fallbacks []int
	// AllowCPU appends the CPU as the last migration target.
	AllowCPU bool
	// VNodes, when non-empty, makes a training job elastic: one virtual
	// node per listed GPU index (repeats time-multiplex a GPU), with batch
	// shares sized to each device's throughput. VNodes[0] is the primary
	// device; Device must match it or be left zero. Elastic jobs can be
	// grown, shrunk, rebound, and drained at runtime without a restart.
	VNodes []int
}

// JobSpec describes a DL job for any scheduler.
type JobSpec struct {
	// Name labels the job.
	Name string
	// Model is a zoo model name (see Models).
	Model string
	// Batch is the mini-batch size.
	Batch int
	// Train selects a training job; otherwise the job serves inference.
	Train bool
	// Priority orders jobs for SwitchFlow preemption (higher wins).
	Priority int
	// Placement says where the job runs (primary device, fallbacks,
	// virtual nodes).
	Placement Placement
	// Gang makes an elastic training job a synchronous data-parallel
	// gang: one replica per virtual node on a distinct GPU, computing its
	// batch share then meeting at a ring all-reduce step barrier priced
	// on the machine's interconnect topology. The scheduler places,
	// preempts, and resumes the gang as one unit, never a lone replica.
	// Requires Train and at least two replicas (Replicas or
	// Placement.VNodes).
	Gang bool
	// Replicas is the gang width. With Placement.VNodes empty the
	// replicas land on consecutive GPUs starting at Placement.Device;
	// with VNodes set it must be zero or match their count.
	Replicas int
	// ServeEvery sets an open-loop inference arrival period.
	ServeEvery time.Duration
	// ClosedLoop makes the inference stream continuous (next request on
	// completion).
	ClosedLoop bool
	// Saturated makes the inference job iterate with unbounded backlog
	// (throughput measurement).
	Saturated bool
	// RequestDriven disables the job's own arrival clock entirely: every
	// request arrives through Job.Offer (trace-driven traffic). Mutually
	// exclusive with ServeEvery, ClosedLoop, and Saturated.
	RequestDriven bool
	// PoissonArrivals draws exponential inter-arrival times with mean
	// ServeEvery (seeded by ArrivalSeed).
	PoissonArrivals bool
	// ArrivalSeed seeds the stochastic arrival process.
	ArrivalSeed int64
	// SLO is the serving latency objective. Admission control sheds an
	// arriving request when its projected queueing delay exceeds the SLO;
	// zero admits everything.
	SLO time.Duration
	// MaxBatch enables dynamic micro-batching: up to MaxBatch queued
	// requests fuse into one compute launch (open-loop serving only).
	// Zero or one keeps single-request launches.
	MaxBatch int
	// BatchWait bounds how long a sub-target micro-batch may hold the
	// launch waiting for more requests. Requires MaxBatch > 1.
	BatchWait time.Duration
	// Eager runs the model in dynamic-graph mode (per-op dispatch, no
	// graph optimization).
	Eager bool
	// Fuse applies static-graph elementwise fusion.
	Fuse bool
}

// ErrInvalidJobSpec is wrapped by every JobSpec validation error; test
// with errors.Is.
var ErrInvalidJobSpec = errors.New("invalid job spec")

// placement normalizes the spec's placement: VNodes[0] fills an unset
// Device, and a gang without VNodes materializes its replicas.
func (spec JobSpec) placement() Placement {
	p := spec.Placement
	if len(p.VNodes) > 0 && p.Device == 0 {
		p.Device = p.VNodes[0]
	}
	return spec.gangPlacement(p)
}

// gangPlacement materializes a gang spec's replica set: when the spec
// names no explicit VNodes, Replicas consecutive GPUs starting at the
// primary device become the gang's virtual nodes.
func (spec JobSpec) gangPlacement(p Placement) Placement {
	if !spec.Gang || len(p.VNodes) > 0 || spec.Replicas < 1 || p.Device < 0 {
		return p
	}
	p.VNodes = make([]int, spec.Replicas)
	for i := range p.VNodes {
		p.VNodes[i] = p.Device + i
	}
	return p
}

// validatePlacement checks the normalized Placement.
func (spec JobSpec) validatePlacement(p Placement) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrInvalidJobSpec, fmt.Sprintf(format, args...))
	}
	if p.Device < CPUDevice {
		return fail("Placement.Device must be a GPU index or CPUDevice, got %d", p.Device)
	}
	if spec.Train && p.Device == CPUDevice && len(p.VNodes) == 0 {
		return fail("training job %q cannot be placed CPU-only", spec.Name)
	}
	seen := map[int]bool{}
	for _, g := range p.Fallbacks {
		if g < 0 {
			return fail("Placement fallback GPU index must be non-negative, got %d", g)
		}
		if g == p.Device {
			return fail("Placement fallback GPU %d duplicates the primary device", g)
		}
		if seen[g] {
			return fail("Placement fallback GPU %d listed twice", g)
		}
		seen[g] = true
	}
	if len(p.VNodes) == 0 {
		return nil
	}
	if !spec.Train {
		return fail("job %q: virtual nodes require a training job", spec.Name)
	}
	for _, g := range p.VNodes {
		if g < 0 {
			return fail("virtual node GPU index must be non-negative, got %d", g)
		}
	}
	if p.Device != p.VNodes[0] {
		return fail("Placement.Device %d must equal VNodes[0] %d (or be left zero)", p.Device, p.VNodes[0])
	}
	if len(p.VNodes) > spec.Batch {
		return fail("%d virtual nodes exceed batch %d (each needs >= 1 sample)", len(p.VNodes), spec.Batch)
	}
	return nil
}

// validateGang checks the gang surface against the materialized
// placement: a gang is a training job with at least two replicas on
// distinct GPUs, and Replicas must agree with any explicit VNodes.
func (spec JobSpec) validateGang(p Placement) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrInvalidJobSpec, fmt.Sprintf(format, args...))
	}
	if spec.Replicas < 0 {
		return fail("Replicas must be non-negative, got %d", spec.Replicas)
	}
	if spec.Replicas > 0 && !spec.Gang {
		return fail("Replicas is a gang width; set Gang too")
	}
	if !spec.Gang {
		return nil
	}
	if !spec.Train {
		return fail("gang job %q must be a training job", spec.Name)
	}
	if spec.Replicas > 0 && len(spec.Placement.VNodes) > 0 && spec.Replicas != len(spec.Placement.VNodes) {
		return fail("gang job %q: Replicas %d conflicts with %d Placement.VNodes", spec.Name, spec.Replicas, len(spec.Placement.VNodes))
	}
	if len(p.VNodes) < 2 {
		return fail("gang job %q needs at least two replicas (set Replicas or Placement.VNodes)", spec.Name)
	}
	seen := map[int]bool{}
	for _, g := range p.VNodes {
		if seen[g] {
			return fail("gang job %q lists GPU %d twice; replicas need distinct GPUs", spec.Name, g)
		}
		seen[g] = true
	}
	return nil
}

// Validate checks the spec's machine-independent invariants: a positive
// batch, a known model, non-negative device indices, a coherent
// placement, and a coherent workload mode. AddJob validates
// automatically (adding a range check against the simulation's machine);
// call Validate directly to check specs before building anything.
func (spec JobSpec) Validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrInvalidJobSpec, fmt.Sprintf(format, args...))
	}
	if spec.Batch <= 0 {
		return fail("batch must be positive, got %d", spec.Batch)
	}
	if _, err := models.ByName(spec.Model); err != nil {
		return fail("%v", err)
	}
	p := spec.placement()
	if err := spec.validatePlacement(p); err != nil {
		return err
	}
	if err := spec.validateGang(p); err != nil {
		return err
	}
	if spec.ServeEvery < 0 {
		return fail("ServeEvery must be non-negative, got %v", spec.ServeEvery)
	}
	if spec.SLO < 0 {
		return fail("SLO must be non-negative, got %v", spec.SLO)
	}
	if spec.MaxBatch < 0 {
		return fail("MaxBatch must be non-negative, got %d", spec.MaxBatch)
	}
	if spec.BatchWait < 0 {
		return fail("BatchWait must be non-negative, got %v", spec.BatchWait)
	}
	if spec.BatchWait > 0 && spec.MaxBatch <= 1 {
		return fail("BatchWait needs MaxBatch > 1 to have a batch to wait for")
	}
	if spec.Train {
		if spec.ServeEvery > 0 || spec.ClosedLoop || spec.Saturated || spec.PoissonArrivals || spec.RequestDriven {
			return fail("training job %q must not set serving modes (ServeEvery/ClosedLoop/Saturated/PoissonArrivals/RequestDriven)", spec.Name)
		}
		if spec.SLO > 0 || spec.MaxBatch > 0 {
			return fail("training job %q must not set serving SLO or MaxBatch", spec.Name)
		}
		return nil
	}
	if spec.ClosedLoop && spec.Saturated {
		return fail("ClosedLoop and Saturated are mutually exclusive")
	}
	if spec.Saturated && (spec.ServeEvery > 0 || spec.PoissonArrivals) {
		return fail("Saturated ignores arrivals; do not set ServeEvery or PoissonArrivals")
	}
	if spec.ClosedLoop && (spec.ServeEvery > 0 || spec.PoissonArrivals) {
		return fail("ClosedLoop generates its own arrivals; do not set ServeEvery or PoissonArrivals")
	}
	if spec.PoissonArrivals && spec.ServeEvery <= 0 {
		return fail("PoissonArrivals needs ServeEvery as the mean inter-arrival time")
	}
	if spec.RequestDriven && (spec.ServeEvery > 0 || spec.ClosedLoop || spec.Saturated || spec.PoissonArrivals) {
		return fail("RequestDriven takes arrivals only from Offer; do not set ServeEvery, ClosedLoop, Saturated, or PoissonArrivals")
	}
	if spec.ServeEvery == 0 && !spec.ClosedLoop && !spec.Saturated && !spec.RequestDriven {
		return fail("serving job %q has no arrival process; set ServeEvery, ClosedLoop, Saturated, or RequestDriven", spec.Name)
	}
	return nil
}

func (spec JobSpec) toConfig() (workload.Config, error) {
	model, err := models.ByName(spec.Model)
	if err != nil {
		return workload.Config{}, err
	}
	kind := workload.KindServing
	if spec.Train {
		kind = workload.KindTraining
	}
	p := spec.placement()
	dev := device.GPUID(p.Device)
	if p.Device == CPUDevice {
		dev = device.CPUID
	}
	var fallbacks []device.ID
	for _, idx := range p.Fallbacks {
		fallbacks = append(fallbacks, device.GPUID(idx))
	}
	if p.AllowCPU {
		fallbacks = append(fallbacks, device.CPUID)
	}
	var vnodes []device.ID
	for _, idx := range p.VNodes {
		vnodes = append(vnodes, device.GPUID(idx))
	}
	return workload.Config{
		Name:            spec.Name,
		Model:           model,
		Batch:           spec.Batch,
		Kind:            kind,
		Priority:        spec.Priority,
		Device:          dev,
		Fallbacks:       fallbacks,
		VNodes:          vnodes,
		Gang:            spec.Gang,
		ArrivalEvery:    spec.ServeEvery,
		PoissonArrivals: spec.PoissonArrivals,
		ArrivalSeed:     spec.ArrivalSeed,
		ClosedLoop:      spec.ClosedLoop,
		Saturated:       spec.Saturated,
		SLO:             spec.SLO,
		MaxBatch:        spec.MaxBatch,
		BatchWait:       spec.BatchWait,
		Eager:           spec.Eager,
		Fuse:            spec.Fuse,
	}, nil
}

// Job is a handle on a running DL job.
type Job struct {
	inner *workload.Job
}

// Name returns the job's name.
func (j *Job) Name() string { return j.inner.Cfg.Name }

// Iterations returns completed training steps or compute launches (one
// per micro-batch for a batched serving job).
func (j *Job) Iterations() int { return j.inner.Iterations }

// Throughput returns images (or sequences) per second over the window.
// For request-driven serving it counts served requests (a fused
// micro-batch launch carries several), so batched and unbatched runs
// compare on the same scale; training and saturated serving count
// iterations times the mini-batch size as before.
func (j *Job) Throughput(window time.Duration) float64 {
	if window <= 0 {
		return 0
	}
	if j.inner.Cfg.Kind == workload.KindServing && !j.inner.Cfg.Saturated {
		return float64(j.inner.ServingStats().Served*j.inner.Cfg.Batch) / window.Seconds()
	}
	return float64(j.inner.Iterations*j.inner.Cfg.Batch) / window.Seconds()
}

// P95Latency returns the 95th-percentile serving latency.
func (j *Job) P95Latency() time.Duration { return j.inner.Latencies.Percentile(95) }

// P99Latency returns the 99th-percentile serving latency.
func (j *Job) P99Latency() time.Duration { return j.inner.Latencies.Percentile(99) }

// MeanLatency returns the mean serving latency.
func (j *Job) MeanLatency() time.Duration { return j.inner.Latencies.Mean() }

// Requests returns the number of latency samples recorded.
func (j *Job) Requests() int { return j.inner.Latencies.Count() }

// Restarts returns how many times the job recovered from an injected
// fault (crash-and-restart or fault-driven migration). Always zero under
// the baselines — they have no recovery path.
func (j *Job) Restarts() int { return j.inner.Restarts }

// ServingStats snapshots a serving job's request accounting: what the
// arrival process offered, what admission control shed, what was served,
// how much of it met the SLO, and how many micro-batches formed.
type ServingStats struct {
	Offered int
	Shed    int
	Served  int
	SLOMet  int
	Batches int
}

// ServingStats returns the job's request counters; all zero for training.
func (j *Job) ServingStats() ServingStats {
	s := j.inner.ServingStats()
	return ServingStats{
		Offered: s.Offered,
		Shed:    s.Shed,
		Served:  s.Served,
		SLOMet:  s.SLOMet,
		Batches: s.Batches,
	}
}

// Shed returns how many requests admission control rejected.
func (j *Job) Shed() int { return j.inner.ServingStats().Shed }

// Offer presents one externally generated request to a request-driven
// serving job at the current virtual time — the entry point for
// trace-driven traffic (swrun -traffic, scenario "traffic" blocks). It
// runs the job's normal admission control and reports whether the
// request was accepted.
func (j *Job) Offer() bool { return j.inner.Offer() }

// SLOAttainment returns the percentage of served requests that met the
// job's SLO; zero when nothing was served or no SLO is set.
func (j *Job) SLOAttainment() float64 { return j.inner.ServingStats().AttainmentPct() }

// MeanBatch returns the average micro-batch size across all launches.
func (j *Job) MeanBatch() float64 { return j.inner.ServingStats().MeanBatch() }

// VNodes returns the job's current virtual-node count; legacy jobs
// report their single implicit vnode.
func (j *Job) VNodes() int { return j.inner.Binding().Len() }

// Binding renders the job's current virtual-node binding with per-device
// batch shares, e.g. "gpu:0(10)+gpu:1(22)". It reflects runtime grows,
// shrinks, rebinds, drains, and fault healing.
func (j *Job) Binding() string { return j.inner.Binding().String() }

// Elastic reports whether the job was admitted with virtual nodes and
// therefore supports Grow/Shrink/Rebind.
func (j *Job) Elastic() bool { return j.inner.Elastic() }

// Gang reports whether the job is a synchronous data-parallel gang: its
// replicas compute batch shares independently, then meet at a ring
// all-reduce step barrier priced on the machine's interconnect topology.
// Gangs are suspended and resumed as one unit, never a lone replica.
func (j *Job) Gang() bool { return j.inner.Gang() }

// Crashed reports whether the job died (e.g. OOM under a baseline).
func (j *Job) Crashed() bool { return j.inner.Crashed() }

// Err returns the crash cause, nil while healthy.
func (j *Job) Err() error { return j.inner.CrashErr }
