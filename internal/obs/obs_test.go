package obs

import (
	"fmt"
	"testing"
	"time"

	"switchflow/internal/sim"
)

func TestBusSequenceAndFanOut(t *testing.T) {
	eng := sim.NewEngine()
	bus := NewBus(eng)
	a := NewRecorder(0)
	b := NewRecorder(0)
	bus.Subscribe(a)
	bus.Subscribe(b, KindPreempt)

	eng.Schedule(10*time.Millisecond, func() {
		bus.Emit(Event{Kind: KindKernelSpan, Ctx: 1, Name: "conv"})
		bus.Emit(Event{Kind: KindPreempt, Ctx: 2})
	})
	eng.RunUntil(20 * time.Millisecond)

	if a.Len() != 2 {
		t.Fatalf("all-kinds sink saw %d events, want 2", a.Len())
	}
	got := a.Events()
	if got[0].Seq != 1 || got[1].Seq != 2 {
		t.Errorf("seqs = %d,%d, want 1,2", got[0].Seq, got[1].Seq)
	}
	if got[0].Time != 10*time.Millisecond {
		t.Errorf("event time = %v, want 10ms (virtual emit time)", got[0].Time)
	}
	if b.Len() != 1 || b.Events()[0].Kind != KindPreempt {
		t.Errorf("kind-filtered sink saw %d events (want only the Preempt)", b.Len())
	}
	// The filtered sink still sees the bus-wide numbering.
	if b.Events()[0].Seq != 2 {
		t.Errorf("filtered sink's event Seq = %d, want 2", b.Events()[0].Seq)
	}
}

func TestBusUnwantedKindsConsumeNoSequence(t *testing.T) {
	eng := sim.NewEngine()
	bus := NewBus(eng)
	rec := NewRecorder(0)
	bus.Subscribe(rec, KindPreempt)

	if bus.Wants(KindOpSched) {
		t.Fatal("Wants(OpSched) true with only a Preempt subscriber")
	}
	bus.Emit(Event{Kind: KindOpSched}) // dropped, no seq consumed
	bus.Emit(Event{Kind: KindPreempt})
	if got := rec.Events()[0].Seq; got != 1 {
		t.Errorf("Seq = %d after a dropped event, want 1 (drops must not burn numbers)", got)
	}
}

func TestNilBusIsSafe(t *testing.T) {
	var bus *Bus
	if bus.Wants(KindKernelSpan) || bus.Active() {
		t.Error("nil bus reports subscribers")
	}
	bus.Emit(Event{Kind: KindKernelSpan}) // must not panic
}

func TestRecorderRing(t *testing.T) {
	r := NewRecorder(3)
	for i := 1; i <= 5; i++ {
		r.Observe(Event{Seq: uint64(i)})
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	if r.Dropped() != 2 {
		t.Errorf("Dropped = %d, want 2", r.Dropped())
	}
	got := r.Events()
	for i, want := range []uint64{3, 4, 5} {
		if got[i].Seq != want {
			t.Fatalf("Events()[%d].Seq = %d, want %d (oldest-first order)", i, got[i].Seq, want)
		}
	}
}

// TestRecorderRingBufferStopsAtCap: a capped recorder's buffer grows to
// exactly its cap, so a large trace window holds no slack beyond it, and
// the window still reads oldest first after the wrap.
func TestRecorderRingBufferStopsAtCap(t *testing.T) {
	const limit = 1000
	r := NewRecorder(limit)
	for i := 1; i <= 1500; i++ {
		r.Observe(Event{Seq: uint64(i)})
		if c := cap(r.events); c > limit {
			t.Fatalf("after %d events the buffer holds %d, past the cap of %d", i, c, limit)
		}
	}
	got := r.Events()
	if len(got) != limit || got[0].Seq != 501 || got[limit-1].Seq != 1500 {
		t.Fatalf("window holds %d events, %d..%d; want %d, 501..1500",
			len(got), got[0].Seq, got[len(got)-1].Seq, limit)
	}
}

func TestRecorderCountsSurviveWrap(t *testing.T) {
	r := NewRecorder(3)
	kinds := []Kind{
		KindKernelSpan, KindPreempt, KindKernelSpan, KindLaunch, KindPreempt,
		KindKernelSpan, KindResume, KindKernelSpan, KindPreempt, KindLaunch,
	}
	want := map[Kind]uint64{}
	for i, k := range kinds {
		r.Observe(Event{Seq: uint64(i + 1), Kind: k})
		want[k]++
	}
	var sum uint64
	for k := Kind(0); k < numKinds; k++ {
		if got := r.Count(k); got != want[k] {
			t.Errorf("Count(%v) = %d, want %d (cumulative, evicted events included)", k, got, want[k])
		}
		sum += r.Count(k)
	}
	if total := uint64(r.Len()) + r.Dropped(); sum != total || sum != uint64(len(kinds)) {
		t.Errorf("counts sum to %d, Len()+Dropped() = %d, observed %d", sum, total, len(kinds))
	}
	got := r.Events()
	if len(got) != 3 {
		t.Fatalf("Events() holds %d events, want the last 3", len(got))
	}
	for i, seq := range []uint64{8, 9, 10} {
		if got[i].Seq != seq || got[i].Kind != kinds[seq-1] {
			t.Errorf("Events()[%d] = seq %d %v, want seq %d %v", i, got[i].Seq, got[i].Kind, seq, kinds[seq-1])
		}
	}
}

func TestKindStrings(t *testing.T) {
	for k := KindKernelSpan; k < numKinds; k++ {
		if s := k.String(); s == "" || s == "Unknown" {
			t.Errorf("Kind(%d) has no name", k)
		}
	}
	if Kind(0).String() != "Unknown" || Kind(200).String() != "Unknown" {
		t.Error("out-of-range kinds should stringify as Unknown")
	}
}

func TestMaskAllCoversEveryKind(t *testing.T) {
	for k := KindKernelSpan; k < numKinds; k++ {
		if MaskAll&kindBit(k) == 0 {
			t.Errorf("MaskAll misses %v", k)
		}
	}
}

func TestSinkFunc(t *testing.T) {
	var seen []string
	s := SinkFunc(func(e Event) { seen = append(seen, fmt.Sprintf("%v:%s", e.Kind, e.Name)) })
	s.Observe(Event{Kind: KindLaunch, Name: "gemm"})
	if len(seen) != 1 || seen[0] != "Launch:gemm" {
		t.Errorf("SinkFunc saw %v", seen)
	}
}
