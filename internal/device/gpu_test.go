package device

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"switchflow/internal/obs"
	"switchflow/internal/sim"
)

// doneFunc adapts a plain callback to Completer. It is a pointer type:
// receivers register by identity, and comparing func values panics.
type doneFunc struct {
	name string
	fn   func()
}

func (f *doneFunc) KernelDone(int32) {
	if f.fn != nil {
		f.fn()
	}
}

func (f *doneFunc) KernelName(int32) string { return f.name }

// recv registers fn as a receiver with r (a GPU or a stream) and returns
// its index, for Kernel.Recv.
func recv(r interface{ Register(Completer) int32 }, fn func()) int32 {
	return r.Register(&doneFunc{fn: fn})
}

func newTestGPU() (*sim.Engine, *GPU) {
	eng := sim.NewEngine()
	return eng, NewGPU(eng, GPUID(0), ClassV100)
}

func TestGPUSingleKernelRunsAtSoloSpeed(t *testing.T) {
	eng, gpu := newTestGPU()
	var done time.Duration = -1
	gpu.Submit(Kernel{
		Work:      10 * time.Millisecond,
		Occupancy: 0.9,
		Recv:      recv(gpu, func() { done = eng.Now() }),
	})
	eng.Run()
	if done != 10*time.Millisecond {
		t.Fatalf("kernel finished at %v, want 10ms", done)
	}
}

func TestGPUHeavyKernelsSerialize(t *testing.T) {
	// Two register-bound kernels cannot co-run (§2.2): the second waits
	// for the first, completing at exactly 2x solo time.
	eng, gpu := newTestGPU()
	var ends []time.Duration
	for i := 0; i < 2; i++ {
		gpu.Submit(Kernel{
			Work:      10 * time.Millisecond,
			Occupancy: 0.9,
			Ctx:       i,
			Recv:      recv(gpu, func() { ends = append(ends, eng.Now()) }),
		})
	}
	if gpu.Active() != 1 || gpu.Waiting() != 1 {
		t.Fatalf("active=%d waiting=%d, want 1/1", gpu.Active(), gpu.Waiting())
	}
	eng.Run()
	if ends[0] != 10*time.Millisecond || ends[1] != 20*time.Millisecond {
		t.Fatalf("completions %v, want [10ms 20ms]", ends)
	}
}

func TestGPULightKernelsOverlap(t *testing.T) {
	// Two low-occupancy kernels fit together and co-run with only the
	// mild contention factor.
	eng, gpu := newTestGPU()
	var last time.Duration
	for i := 0; i < 2; i++ {
		gpu.Submit(Kernel{
			Work:      10 * time.Millisecond,
			Occupancy: 0.3,
			Recv:      recv(gpu, func() { last = eng.Now() }),
		})
	}
	if gpu.Active() != 2 {
		t.Fatalf("active = %d, want 2 (0.3+0.3 fits)", gpu.Active())
	}
	eng.Run()
	solo := 10 * time.Millisecond
	want := time.Duration(float64(solo) * (1 + contentionBeta))
	if diff := (last - want).Abs(); diff > 100*time.Microsecond {
		t.Fatalf("overlapped kernels finished at %v, want ~%v", last, want)
	}
}

func TestGPUHeavyBlocksLight(t *testing.T) {
	// A 0.9-occupancy kernel leaves no room: a light kernel behind it in
	// the lane waits (head-of-line, like a hardware work queue).
	eng, gpu := newTestGPU()
	var lightEnd time.Duration
	gpu.Submit(Kernel{Work: 10 * time.Millisecond, Occupancy: 0.9})
	gpu.Submit(Kernel{Work: time.Millisecond, Occupancy: 0.3,
		Recv: recv(gpu, func() { lightEnd = eng.Now() })})
	eng.Run()
	if lightEnd != 11*time.Millisecond {
		t.Fatalf("light kernel ended at %v, want 11ms (after heavy)", lightEnd)
	}
}

func TestGPUStaggeredHeavySubmission(t *testing.T) {
	// k1 runs 0-10ms; k2 arrives at 5ms, waits, runs 10-20ms — the
	// "waiting to be issued" serialization of Figure 2.
	eng, gpu := newTestGPU()
	ends := map[string]time.Duration{}
	gpu.Submit(Kernel{Work: 10 * time.Millisecond, Occupancy: 0.9,
		Recv: recv(gpu, func() { ends["k1"] = eng.Now() })})
	eng.After(5*time.Millisecond, func() {
		gpu.Submit(Kernel{Work: 10 * time.Millisecond, Occupancy: 0.9,
			Recv: recv(gpu, func() { ends["k2"] = eng.Now() })})
	})
	eng.Run()
	if ends["k1"] != 10*time.Millisecond {
		t.Fatalf("k1 ended at %v, want 10ms", ends["k1"])
	}
	if ends["k2"] != 20*time.Millisecond {
		t.Fatalf("k2 ended at %v, want 20ms", ends["k2"])
	}
}

func TestGPUBusyTimeAccounting(t *testing.T) {
	eng, gpu := newTestGPU()
	gpu.Submit(Kernel{Work: 4 * time.Millisecond, Occupancy: 0.9})
	eng.Run()
	eng.RunUntil(20 * time.Millisecond) // idle gap
	eng.Schedule(20*time.Millisecond, func() {
		gpu.Submit(Kernel{Work: 6 * time.Millisecond, Occupancy: 0.9})
	})
	eng.Run()
	if got, want := gpu.BusyTime(), 10*time.Millisecond; got != want {
		t.Fatalf("BusyTime() = %v, want %v", got, want)
	}
}

func TestGPUOutstandingWorkIncludesQueue(t *testing.T) {
	eng, gpu := newTestGPU()
	gpu.Submit(Kernel{Work: 10 * time.Millisecond, Occupancy: 0.9})
	gpu.Submit(Kernel{Work: 10 * time.Millisecond, Occupancy: 0.9})
	var outstanding time.Duration
	eng.Schedule(4*time.Millisecond, func() { outstanding = gpu.OutstandingWork() })
	eng.Run()
	if diff := (outstanding - 16*time.Millisecond).Abs(); diff > 10*time.Microsecond {
		t.Fatalf("OutstandingWork() = %v, want ~16ms (6 running + 10 queued)", outstanding)
	}
}

// collectSpans subscribes a sink to the GPU's bus and returns the slice
// kernel-span events accumulate into.
func collectSpans(gpu *GPU) *[]Span {
	spans := &[]Span{}
	gpu.EventBus().Subscribe(obs.SinkFunc(func(e obs.Event) {
		*spans = append(*spans, Span{Name: e.Name, Ctx: e.Ctx, Start: e.Start, End: e.Start + e.Dur})
	}), obs.KindKernelSpan)
	return spans
}

func TestGPUEmitsKernelSpans(t *testing.T) {
	eng, gpu := newTestGPU()
	spansp := collectSpans(gpu)
	gpu.Submit(Kernel{Ctx: 7, Work: 3 * time.Millisecond, Occupancy: 0.9,
		Recv: gpu.Register(&doneFunc{name: "k"})})
	eng.Run()
	spans := *spansp
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	s := spans[0]
	if s.Name != "k" || s.Ctx != 7 || s.Start != 0 || s.End != 3*time.Millisecond {
		t.Fatalf("span = %+v", s)
	}
}

func TestGPUSpanSinksCompose(t *testing.T) {
	eng, gpu := newTestGPU()
	first := collectSpans(gpu)
	second := collectSpans(gpu)
	gpu.Submit(Kernel{Ctx: 1, Work: time.Millisecond, Occupancy: 0.9})
	eng.Run()
	if len(*first) != 1 || len(*second) != 1 {
		t.Fatalf("both sinks should observe the span: first=%d second=%d", len(*first), len(*second))
	}
}

func TestGPUSpanStartIsAdmissionTime(t *testing.T) {
	eng, gpu := newTestGPU()
	spansp := collectSpans(gpu)
	gpu.Submit(Kernel{Work: 10 * time.Millisecond, Occupancy: 0.9})
	gpu.Submit(Kernel{Work: 5 * time.Millisecond, Occupancy: 0.9})
	eng.Run()
	spans := *spansp
	if len(spans) != 2 {
		t.Fatalf("got %d spans", len(spans))
	}
	if spans[1].Start != 10*time.Millisecond {
		t.Fatalf("queued kernel's span starts at %v, want 10ms (admission)", spans[1].Start)
	}
}

func TestGPUChainedSubmissionFromCallback(t *testing.T) {
	eng, gpu := newTestGPU()
	var ends []time.Duration
	gpu.Submit(Kernel{Work: time.Millisecond, Occupancy: 0.9,
		Recv: recv(gpu, func() {
			ends = append(ends, eng.Now())
			gpu.Submit(Kernel{Work: time.Millisecond, Occupancy: 0.9,
				Recv: recv(gpu, func() { ends = append(ends, eng.Now()) })})
		})})
	eng.Run()
	if len(ends) != 2 {
		t.Fatalf("got %d completions, want 2", len(ends))
	}
	if ends[0] != time.Millisecond || ends[1] != 2*time.Millisecond {
		t.Fatalf("completions at %v, want [1ms 2ms]", ends)
	}
}

func TestGPUCoTrainSlowdownMatchesCalibration(t *testing.T) {
	// Serialized heavy kernels halve per-job throughput: 226 img/s solo
	// drops to ~113, matching the paper's 116 (Figure 2).
	if got := 226.0 / 2; math.Abs(got-116) > 5 {
		t.Fatalf("co-run throughput = %.1f img/s, want ~116", got)
	}
}

// Property: under any submission pattern, total GPU work conserves — every
// kernel eventually completes exactly once, and the device drains.
func TestGPUWorkConservationProperty(t *testing.T) {
	prop := func(works []uint8, delays []uint8, occs []uint8) bool {
		eng, gpu := newTestGPU()
		completions := 0
		n := len(works)
		if n > len(delays) {
			n = len(delays)
		}
		if n > len(occs) {
			n = len(occs)
		}
		for i := 0; i < n; i++ {
			w := time.Duration(works[i]+1) * 100 * time.Microsecond
			d := time.Duration(delays[i]) * 50 * time.Microsecond
			occ := float64(occs[i]%10) / 10
			eng.Schedule(d, func() {
				gpu.Submit(Kernel{Work: w, Occupancy: occ,
					Recv: recv(gpu, func() { completions++ })})
			})
		}
		eng.Run()
		return completions == n && gpu.Active() == 0 && gpu.Waiting() == 0
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: FIFO admission — among same-occupancy kernels, completion
// order equals submission order.
func TestGPUFIFOProperty(t *testing.T) {
	prop := func(works []uint8) bool {
		eng, gpu := newTestGPU()
		var order []int
		for i, w := range works {
			i := i
			gpu.Submit(Kernel{
				Work:      time.Duration(w+1) * 10 * time.Microsecond,
				Occupancy: 0.9,
				Recv:      recv(gpu, func() { order = append(order, i) }),
			})
		}
		eng.Run()
		for i, v := range order {
			if v != i {
				return false
			}
		}
		return len(order) == len(works)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// tally is a pointer Completer that counts completions per tag.
type tally struct{ byTag map[int32]int }

func newTally() *tally { return &tally{byTag: map[int32]int{}} }

func (c *tally) KernelDone(tag int32) { c.byTag[tag]++ }

func (c *tally) KernelName(int32) string { return "" }

func TestGPUFailDropsKernelsWithoutCompleting(t *testing.T) {
	eng, gpu := newTestGPU()
	done := newTally()
	id := gpu.Register(done)
	gpu.Submit(Kernel{Work: 10 * time.Millisecond, Occupancy: 0.9, Recv: id, Tag: 1})
	gpu.Submit(Kernel{Work: 10 * time.Millisecond, Occupancy: 0.9, Recv: id, Tag: 2})
	eng.Schedule(5*time.Millisecond, func() {
		if lost := gpu.Fail(); lost != 2 {
			t.Errorf("Fail dropped %d kernels, want 2", lost)
		}
	})
	eng.Schedule(6*time.Millisecond, gpu.Heal)
	// The dropped kernels' slots are reused by the next submissions.
	eng.Schedule(7*time.Millisecond, func() {
		gpu.Submit(Kernel{Work: time.Millisecond, Occupancy: 0.9, Recv: id, Tag: 3})
	})
	eng.Run()
	if len(done.byTag) != 1 || done.byTag[3] != 1 {
		t.Fatalf("completions by tag %v, want only tag 3, once", done.byTag)
	}
	if gpu.DroppedKernels() != 2 || eng.Now() != 8*time.Millisecond {
		t.Fatalf("dropped %d, drained at %v; want 2 and 8ms", gpu.DroppedKernels(), eng.Now())
	}
}

// TestGPUSubmitCompleteCycleAllocatesNothing pins the device's share of
// the kernel path at zero allocations once its buffers have grown: the
// queue and running set hold kernels by value in reused buffers, and the
// completion callback is bound once.
func TestGPUSubmitCompleteCycleAllocatesNothing(t *testing.T) {
	eng, gpu := newTestGPU()
	done := newTally()
	id := gpu.Register(done)
	cycle := func() {
		// Two light kernels co-run and a heavy one queues behind them.
		gpu.Submit(Kernel{Work: time.Millisecond, Occupancy: 0.3, Recv: id, Tag: 1})
		gpu.Submit(Kernel{Work: 2 * time.Millisecond, Occupancy: 0.3, Recv: id, Tag: 2})
		gpu.Submit(Kernel{Work: time.Millisecond, Occupancy: 0.9, Recv: id, Tag: 3})
		eng.Run()
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("Submit/complete cycle allocates %v times, want 0", n)
	}
	// One warm-up cycle, AllocsPerRun's own warm-up, then 100 measured.
	if done.byTag[1] != 102 || done.byTag[2] != 102 || done.byTag[3] != 102 {
		t.Fatalf("completions by tag %v, want 102 each", done.byTag)
	}
}
