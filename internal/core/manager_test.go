package core

import (
	"strings"
	"testing"
	"time"

	"switchflow/internal/device"
	"switchflow/internal/models"
	"switchflow/internal/sim"
	"switchflow/internal/workload"
)

func spec(t *testing.T, name string) *models.Spec {
	t.Helper()
	s, err := models.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newHarness(t *testing.T, opts Options, gpus ...device.GPUClass) (*sim.Engine, *device.Machine, *Manager) {
	t.Helper()
	eng := sim.NewEngine()
	machine := device.NewMachine(eng, device.ClassXeonDual, gpus...)
	return eng, machine, NewManager(eng, machine, opts)
}

func trainCfg(t *testing.T, name, model string, batch, prio int, dev device.ID) workload.Config {
	return workload.Config{
		Name:     name,
		Model:    spec(t, model),
		Batch:    batch,
		Kind:     workload.KindTraining,
		Priority: prio,
		Device:   dev,
	}
}

func TestSingleTrainingJobProgresses(t *testing.T) {
	eng, machine, m := newHarness(t, Options{}, device.ClassV100)
	job, err := m.AddJob(trainCfg(t, "train", "MobileNetV2", 32, 1, device.GPUID(0)))
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(5 * time.Second)
	if job.Crashed() {
		t.Fatalf("job crashed: %v", job.CrashErr)
	}
	if job.Iterations < 5 {
		t.Fatalf("job completed %d iterations in 5s, want >= 5", job.Iterations)
	}
	if machine.GPU(0).BusyTime() == 0 {
		t.Fatal("GPU never ran a kernel")
	}
}

func TestWeightsResideOnPreferredDevice(t *testing.T) {
	eng, machine, m := newHarness(t, Options{}, device.ClassV100)
	job, err := m.AddJob(trainCfg(t, "train", "ResNet50", 16, 1, device.GPUID(0)))
	if err != nil {
		t.Fatal(err)
	}
	if !job.WeightsOn(device.GPUID(0)) {
		t.Fatal("weights not allocated on gpu:0 at admission")
	}
	if machine.GPU(0).Mem.Used() < job.WeightBytes() {
		t.Fatalf("GPU memory %d below weight bytes %d", machine.GPU(0).Mem.Used(), job.WeightBytes())
	}
	eng.RunUntil(time.Second)
}

func TestTwoTrainingJobsInterleaveWithoutOOM(t *testing.T) {
	// Two NASNetLarge-class jobs would OOM under free sharing; under
	// SwitchFlow's exclusivity only one intermediate footprint is live at
	// a time, so both make progress (§3.4).
	eng, _, m := newHarness(t, Options{}, device.ClassRTX2080Ti)
	a, err := m.AddJob(trainCfg(t, "a", "NASNetLarge", 32, 1, device.GPUID(0)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.AddJob(trainCfg(t, "b", "NASNetLarge", 32, 1, device.GPUID(0)))
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(60 * time.Second)
	if a.Crashed() || b.Crashed() {
		t.Fatalf("crashes: a=%v b=%v", a.CrashErr, b.CrashErr)
	}
	if a.Iterations == 0 || b.Iterations == 0 {
		t.Fatalf("iterations a=%d b=%d, both must progress", a.Iterations, b.Iterations)
	}
	// Fair interleaving: neither job starves.
	ratio := float64(a.Iterations) / float64(b.Iterations)
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("unfair interleaving: a=%d b=%d", a.Iterations, b.Iterations)
	}
}

func TestAdmissionFailsWhenWeightsDoNotFit(t *testing.T) {
	// Aggregate persistent state must fit (§3.4). VGG16 training state is
	// ~1 GiB; 11 jobs exceed the 2080 Ti's 11 GiB budget well before the
	// memory pool does the math for us.
	eng, _, m := newHarness(t, Options{}, device.ClassRTX2080Ti)
	var admitted int
	for i := 0; i < 16; i++ {
		_, err := m.AddJob(trainCfg(t, "vgg", "VGG16", 8, 1, device.GPUID(0)))
		if err != nil {
			break
		}
		admitted++
	}
	if admitted >= 16 {
		t.Fatal("admission never failed; OOM contract not enforced")
	}
	if admitted < 5 {
		t.Fatalf("only %d VGG16 jobs admitted on 11 GiB", admitted)
	}
	eng.RunUntil(time.Millisecond)
}

func TestServingJobRecordsLatencies(t *testing.T) {
	eng, _, m := newHarness(t, Options{}, device.ClassV100)
	job, err := m.AddJob(workload.Config{
		Name:         "serve",
		Model:        spec(t, "ResNet50"),
		Batch:        1,
		Kind:         workload.KindServing,
		Priority:     2,
		Device:       device.GPUID(0),
		ArrivalEvery: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(5 * time.Second)
	if job.Latencies.Count() < 10 {
		t.Fatalf("served %d requests in 5s at 5 req/s, want >= 10", job.Latencies.Count())
	}
	// Solo BS=1 latency: preprocess (~50ms) + H2D + compute; comfortably
	// under 200ms.
	if p95 := job.Latencies.Percentile(95); p95 > 200*time.Millisecond {
		t.Fatalf("solo p95 = %v, want < 200ms", p95)
	}
}

func TestHighPriorityPreemptsTraining(t *testing.T) {
	eng, _, m := newHarness(t, Options{}, device.ClassV100)
	train, err := m.AddJob(trainCfg(t, "train", "VGG16", 32, 1, device.GPUID(0)))
	if err != nil {
		t.Fatal(err)
	}
	serve, err := m.AddJob(workload.Config{
		Name:         "serve",
		Model:        spec(t, "ResNet50"),
		Batch:        1,
		Kind:         workload.KindServing,
		Priority:     2,
		Device:       device.GPUID(0),
		ArrivalEvery: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(10 * time.Second)
	if m.Preemptions == 0 {
		t.Fatal("no preemptions occurred")
	}
	if serve.Latencies.Count() < 20 {
		t.Fatalf("served %d requests, want >= 20", serve.Latencies.Count())
	}
	// VGG16 BS=32 training steps take ~300ms; without preemption p95
	// would absorb whole steps. With preemption the wait is bounded by
	// one in-flight kernel.
	p95 := serve.Latencies.Percentile(95)
	if p95 > 250*time.Millisecond {
		t.Fatalf("p95 with preemption = %v, want < 250ms", p95)
	}
	if train.Iterations == 0 {
		t.Fatal("preempted training job never progressed")
	}
	if train.Crashed() || serve.Crashed() {
		t.Fatalf("crashes: train=%v serve=%v", train.CrashErr, serve.CrashErr)
	}
}

func TestPreemptionLatencyBoundedByInflightKernel(t *testing.T) {
	eng, _, m := newHarness(t, Options{}, device.ClassV100)
	if _, err := m.AddJob(trainCfg(t, "train", "ResNet50", 32, 1, device.GPUID(0))); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddJob(workload.Config{
		Name:         "serve",
		Model:        spec(t, "MobileNetV2"),
		Batch:        1,
		Kind:         workload.KindServing,
		Priority:     2,
		Device:       device.GPUID(0),
		ArrivalEvery: 500 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(10 * time.Second)
	if m.Preemptions == 0 {
		t.Fatal("no preemptions")
	}
	// §5.2.3: worst-case preemption latency is a few tens of ms (one
	// outstanding kernel).
	if p := m.PreemptionLatencies.Max(); p > 60*time.Millisecond {
		t.Fatalf("max acquire latency = %v, want <= 60ms", p)
	}
}

func TestPreemptedJobMigratesToSecondGPU(t *testing.T) {
	eng, machine, m := newHarness(t, Options{},
		device.ClassRTX2080Ti, device.ClassGTX1080Ti)
	low, err := m.AddJob(workload.Config{
		Name:      "low",
		Model:     spec(t, "ResNet50"),
		Batch:     32,
		Kind:      workload.KindTraining,
		Priority:  1,
		Device:    device.GPUID(0),
		Fallbacks: []device.ID{device.GPUID(1), device.CPUID},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(2 * time.Second) // low-priority job warms up on gpu:0
	high, err := m.AddJob(trainCfg(t, "high", "VGG16", 32, 2, device.GPUID(0)))
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(30 * time.Second)
	if m.Migrations == 0 {
		t.Fatal("no migration happened")
	}
	if got := m.JobDevice(low); got != device.GPUID(1) {
		t.Fatalf("low-priority job on %v, want gpu:1", got)
	}
	if !low.WeightsOn(device.GPUID(1)) {
		t.Fatal("weights not resident on migration target")
	}
	if low.WeightsOn(device.GPUID(0)) {
		t.Fatal("weights still retained on source after transfer")
	}
	if low.Iterations < 2 {
		t.Fatalf("migrated job made %d iterations, want >= 2", low.Iterations)
	}
	if high.Iterations < 2 {
		t.Fatalf("preempter made %d iterations, want >= 2", high.Iterations)
	}
	// Weight bytes moved across the peer link.
	if machine.Peer().Transferred() < low.WeightBytes() {
		t.Fatalf("peer link moved %d bytes, want >= %d",
			machine.Peer().Transferred(), low.WeightBytes())
	}
}

func TestPreemptedJobFallsBackToCPU(t *testing.T) {
	eng, _, m := newHarness(t, Options{}, device.ClassRTX2080Ti)
	low, err := m.AddJob(workload.Config{
		Name:      "low",
		Model:     spec(t, "MobileNetV2"),
		Batch:     8,
		Kind:      workload.KindTraining,
		Priority:  1,
		Device:    device.GPUID(0),
		Fallbacks: []device.ID{device.CPUID},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(time.Second)
	if _, err := m.AddJob(trainCfg(t, "high", "ResNet50", 32, 2, device.GPUID(0))); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(120 * time.Second)
	if got := m.JobDevice(low); got != device.CPUID {
		t.Fatalf("low job on %v, want cpu:0", got)
	}
	if low.Iterations < 1 {
		t.Fatal("CPU-migrated job made no progress")
	}
	gpuIters := low.Iterations
	// CPU training (4 temp-pool threads with MKL intra-op parallelism) is
	// drastically slower than GPU (Figure 7 d) but not frozen.
	eng.RunUntil(240 * time.Second)
	cpuRate := float64(low.Iterations-gpuIters) / 120
	if cpuRate > 8 {
		t.Fatalf("CPU iteration rate %.2f/s implausibly fast", cpuRate)
	}
	if cpuRate < 0.2 {
		t.Fatalf("CPU iteration rate %.2f/s implausibly slow", cpuRate)
	}
}

func TestSharedInputGroupLockstep(t *testing.T) {
	for _, tc := range []struct {
		name      string
		kind      workload.Kind
		preempter bool
	}{
		{name: "alone", kind: workload.KindServing},
		// A higher-priority server repeatedly preempts whichever member
		// holds the GPU; a preempted member must stay suspended in its
		// turn and resume through the group, never run input of its own.
		{name: "preempted", kind: workload.KindTraining, preempter: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, _, m := newHarness(t, Options{}, device.ClassV100)
			cfg := func(name string) workload.Config {
				return workload.Config{
					Name:   name,
					Model:  spec(t, "ResNet50"),
					Batch:  32,
					Kind:   tc.kind,
					Device: device.GPUID(0),
				}
			}
			group, jobs, err := m.AddSharedGroup([]workload.Config{cfg("m0"), cfg("m1")})
			if err != nil {
				t.Fatal(err)
			}
			horizon := 30 * time.Second
			if tc.preempter {
				horizon = 20 * time.Second
				if _, err := m.AddJob(workload.Config{
					Name: "serve", Model: spec(t, "MobileNetV2"), Batch: 1,
					Kind: workload.KindServing, Priority: 5, Device: device.GPUID(0),
					ArrivalEvery: 50 * time.Millisecond,
				}); err != nil {
					t.Fatal(err)
				}
			}
			eng.RunUntil(horizon)
			counts := group.Iterations()
			if counts[0] == 0 {
				t.Fatal("group made no progress")
			}
			if diff := counts[0] - counts[1]; diff < 0 || diff > 1 {
				t.Fatalf("lockstep violated: iterations %v after %d preemptions", counts, m.Preemptions)
			}
			if tc.preempter && m.Preemptions == 0 {
				t.Fatal("the server never preempted a member")
			}
			for _, job := range jobs {
				if job.Crashed() {
					t.Fatalf("group member crashed: %v", job.CrashErr)
				}
				if st := m.DebugJobState(job); !strings.HasPrefix(st, "phase=") {
					t.Fatalf("DebugJobState(%s) = %q, want the member's state", job.Cfg.Name, st)
				}
			}
		})
	}
}

func TestSharedGroupRejectsMismatchedMembers(t *testing.T) {
	_, _, m := newHarness(t, Options{}, device.ClassV100, device.ClassV100)
	a := workload.Config{Name: "a", Model: spec(t, "ResNet50"), Batch: 32,
		Kind: workload.KindServing, Device: device.GPUID(0)}
	b := a
	b.Device = device.GPUID(1)
	if _, _, err := m.AddSharedGroup([]workload.Config{a, b}); err == nil {
		t.Fatal("cross-device group accepted")
	}
	c := a
	c.Batch = 64
	if _, _, err := m.AddSharedGroup([]workload.Config{a, c}); err == nil {
		t.Fatal("mismatched batch group accepted")
	}
	if _, _, err := m.AddSharedGroup([]workload.Config{a}); err == nil {
		t.Fatal("singleton group accepted")
	}
}

func TestStopJobHaltsProgress(t *testing.T) {
	eng, _, m := newHarness(t, Options{}, device.ClassV100)
	job, err := m.AddJob(trainCfg(t, "train", "MobileNetV2", 16, 1, device.GPUID(0)))
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(2 * time.Second)
	m.StopJob(job)
	at := job.Iterations
	eng.RunUntil(10 * time.Second)
	if job.Iterations > at+2 {
		t.Fatalf("stopped job kept iterating: %d -> %d", at, job.Iterations)
	}
}
