package device

import (
	"testing"
	"time"
)

func TestStreamSerializesKernels(t *testing.T) {
	eng, gpu := newTestGPU()
	s := NewStream(gpu)
	var ends []time.Duration
	for i := 0; i < 3; i++ {
		s.Enqueue(Kernel{Work: 10 * time.Millisecond, Occupancy: 0.9,
			Recv: recv(s, func() { ends = append(ends, eng.Now()) })})
	}
	eng.Run()
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	if len(ends) != 3 {
		t.Fatalf("got %d completions, want 3", len(ends))
	}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("completions %v, want %v", ends, want)
		}
	}
}

func TestTwoStreamsContendLikeFigure2(t *testing.T) {
	// Two streams of heavy kernels on one GPU: per-stream progress should
	// be roughly half of solo speed (the paper's 226 -> 116 img/s drop).
	eng, gpu := newTestGPU()
	s1, s2 := NewStream(gpu), NewStream(gpu)
	var end1, end2 time.Duration
	const kernels = 10
	for i := 0; i < kernels; i++ {
		s1.Enqueue(Kernel{Ctx: 1, Work: time.Millisecond, Occupancy: 0.9,
			Recv: recv(s1, func() { end1 = eng.Now() })})
		s2.Enqueue(Kernel{Ctx: 2, Work: time.Millisecond, Occupancy: 0.9,
			Recv: recv(s2, func() { end2 = eng.Now() })})
	}
	eng.Run()
	solo := kernels * time.Millisecond
	slowdown1 := float64(end1) / float64(solo)
	slowdown2 := float64(end2) / float64(solo)
	for _, sd := range []float64{slowdown1, slowdown2} {
		if sd < 1.85 || sd > 2.0 {
			t.Fatalf("co-run slowdown = %.2f, want ~1.94 (paper: 226/116)", sd)
		}
	}
}

func TestStreamAbortDiscardsQueueOnly(t *testing.T) {
	eng, gpu := newTestGPU()
	s := NewStream(gpu)
	finished := map[string]bool{}
	for _, name := range []string{"a", "b", "c"} {
		name := name
		s.Enqueue(Kernel{Work: 10 * time.Millisecond, Occupancy: 0.9,
			Recv: recv(s, func() { finished[name] = true })})
	}
	// Abort mid-way through kernel "a": b and c are queued, a in flight.
	eng.Schedule(5*time.Millisecond, func() {
		if got := s.Abort(); got != 2 {
			t.Errorf("Abort() discarded %d kernels, want 2", got)
		}
	})
	eng.Run()
	if !finished["a"] {
		t.Error("in-flight kernel a must run to completion")
	}
	if finished["b"] || finished["c"] {
		t.Errorf("aborted kernels ran: %v", finished)
	}
	if s.Aborted() != 2 {
		t.Errorf("Aborted() = %d, want 2", s.Aborted())
	}
	// Worst-case preemption latency = remainder of the in-flight kernel.
	if eng.Now() != 10*time.Millisecond {
		t.Errorf("drain completed at %v, want 10ms", eng.Now())
	}
}

func TestStreamDrainFiresWhenEmpty(t *testing.T) {
	eng, gpu := newTestGPU()
	s := NewStream(gpu)
	fired := false
	s.Drain(func() { fired = true })
	if !fired {
		t.Fatal("Drain on empty stream must fire inline")
	}
	// Now with work in flight.
	s.Enqueue(Kernel{Work: 5 * time.Millisecond, Occupancy: 0.9})
	var at time.Duration = -1
	s.Drain(func() { at = eng.Now() })
	eng.Run()
	if at != 5*time.Millisecond {
		t.Fatalf("Drain fired at %v, want 5ms", at)
	}
}

func TestStreamDrainAfterAbort(t *testing.T) {
	eng, gpu := newTestGPU()
	s := NewStream(gpu)
	s.Enqueue(Kernel{Work: 10 * time.Millisecond, Occupancy: 0.9})
	s.Enqueue(Kernel{Work: 10 * time.Millisecond, Occupancy: 0.9})
	var at time.Duration = -1
	eng.Schedule(2*time.Millisecond, func() {
		s.Abort()
		s.Drain(func() { at = eng.Now() })
	})
	eng.Run()
	if at != 10*time.Millisecond {
		t.Fatalf("post-abort drain at %v, want 10ms (in-flight kernel end)", at)
	}
}

func TestStreamEnqueueAfterAbortResumes(t *testing.T) {
	eng, gpu := newTestGPU()
	s := NewStream(gpu)
	s.Enqueue(Kernel{Work: 2 * time.Millisecond, Occupancy: 0.9})
	s.Abort() // no queued kernels; a stays in flight
	done := false
	eng.Schedule(5*time.Millisecond, func() {
		s.Enqueue(Kernel{Work: time.Millisecond, Occupancy: 0.9,
			Recv: recv(s, func() { done = true })})
	})
	eng.Run()
	if !done {
		t.Fatal("kernel enqueued after abort never ran")
	}
}

func TestStreamMultipleDrainWaiters(t *testing.T) {
	eng, gpu := newTestGPU()
	s := NewStream(gpu)
	s.Enqueue(Kernel{Work: 5 * time.Millisecond, Occupancy: 0.9})
	fired := 0
	s.Drain(func() { fired++ })
	s.Drain(func() { fired++ })
	eng.Run()
	if fired != 2 {
		t.Fatalf("drain waiters fired %d times, want 2", fired)
	}
}

func TestStreamDrainNotFiredWhileBacklog(t *testing.T) {
	eng, gpu := newTestGPU()
	s := NewStream(gpu)
	s.Enqueue(Kernel{Work: time.Millisecond, Occupancy: 0.9})
	s.Enqueue(Kernel{Work: time.Millisecond, Occupancy: 0.9})
	var at time.Duration = -1
	s.Drain(func() { at = eng.Now() })
	eng.Run()
	if at != 2*time.Millisecond {
		t.Fatalf("drain fired at %v, want 2ms (after the backlog)", at)
	}
}

// TestStreamRecoversAfterGPUFailAndHeal: Fail drops the stream's
// in-flight kernel without completing it. Once the GPU heals, the stream
// must release that slot, run what is enqueued next, and drain.
func TestStreamRecoversAfterGPUFailAndHeal(t *testing.T) {
	eng, gpu := newTestGPU()
	s := NewStream(gpu)
	done := newTally()
	id := s.Register(done)
	s.Enqueue(Kernel{Work: 10 * time.Millisecond, Occupancy: 0.9, Recv: id, Tag: 1})
	eng.Schedule(5*time.Millisecond, func() { gpu.Fail() })
	eng.Schedule(6*time.Millisecond, func() {
		if !s.InFlight() {
			t.Error("stream released its slot while the GPU is still failed")
		}
		gpu.Heal()
		if s.InFlight() {
			t.Error("stream still holds the dropped kernel's slot after Heal")
		}
	})
	drained := false
	eng.Schedule(7*time.Millisecond, func() {
		s.Enqueue(Kernel{Work: time.Millisecond, Occupancy: 0.9, Recv: id, Tag: 2})
		s.Drain(func() { drained = true })
	})
	eng.RunFor(time.Second)
	if done.byTag[2] != 1 || done.byTag[1] != 0 {
		t.Errorf("completions by tag %v, want tag 2 once and never tag 1", done.byTag)
	}
	if !drained || s.InFlight() || gpu.Launched() != 2 {
		t.Errorf("drained=%v inflight=%v launched=%d, want true false 2",
			drained, s.InFlight(), gpu.Launched())
	}
}

// TestStreamDrainReleasesSlotLostToFailure: a Drain after the GPU healed
// fires even when nothing new is enqueued.
func TestStreamDrainReleasesSlotLostToFailure(t *testing.T) {
	eng, gpu := newTestGPU()
	s := NewStream(gpu)
	s.Enqueue(Kernel{Work: 10 * time.Millisecond, Occupancy: 0.9})
	eng.Schedule(5*time.Millisecond, func() { gpu.Fail() })
	eng.Schedule(6*time.Millisecond, gpu.Heal)
	var at time.Duration = -1
	eng.Schedule(7*time.Millisecond, func() { s.Drain(func() { at = eng.Now() }) })
	eng.Run()
	if at != 7*time.Millisecond {
		t.Fatalf("drain fired at %v, want 7ms (inline, nothing left in flight)", at)
	}
}

// TestStreamEnqueueDoneCycleAllocatesNothing: the stream's backlog reuses
// its ring buffer and hands the GPU one completer bound at construction.
func TestStreamEnqueueDoneCycleAllocatesNothing(t *testing.T) {
	eng, gpu := newTestGPU()
	s1, s2 := NewStream(gpu), NewStream(gpu)
	done := newTally()
	id1, id2 := s1.Register(done), s2.Register(done)
	cycle := func() {
		for i := int32(0); i < 4; i++ {
			s1.Enqueue(Kernel{Work: time.Millisecond, Occupancy: 0.6, Recv: id1, Tag: i})
			s2.Enqueue(Kernel{Work: time.Millisecond, Occupancy: 0.6, Recv: id2, Tag: i})
		}
		eng.Run()
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("Enqueue/done cycle allocates %v times, want 0", n)
	}
	for tag := int32(0); tag < 4; tag++ {
		if done.byTag[tag] != 2*102 {
			t.Fatalf("completions by tag %v, want %d each", done.byTag, 2*102)
		}
	}
}

// TestStreamReleaseWaitsForInFlightKernel: registering is by identity,
// a released slot is reused, and a receiver released while its kernel
// runs keeps its slot (and still names and hears of the kernel) until
// that kernel completes.
func TestStreamReleaseWaitsForInFlightKernel(t *testing.T) {
	eng, gpu := newTestGPU()
	spans := collectSpans(gpu)
	s := NewStream(gpu)
	heard := 0
	a := &doneFunc{name: "a", fn: func() { heard++ }}
	id := s.Register(a)
	if again := s.Register(a); again != id {
		t.Fatalf("registering a receiver twice gave slots %d and %d", id, again)
	}
	s.Enqueue(Kernel{Work: time.Millisecond, Occupancy: 0.9, Recv: id})
	s.Release(id)
	if other := s.Register(&doneFunc{}); other == id {
		t.Fatal("a slot was reused while its receiver's kernel was in flight")
	}
	eng.Run()
	if heard != 1 || len(*spans) != 1 || (*spans)[0].Name != "a" {
		t.Fatalf("released receiver heard %d completions, spans %+v; want 1 named a", heard, *spans)
	}
	if s.recv[id] != nil {
		t.Fatal("the slot still holds its receiver after the kernel completed")
	}
	if reused := s.Register(&doneFunc{}); reused != id {
		t.Fatalf("freed slot %d not reused, got %d", id, reused)
	}
}
