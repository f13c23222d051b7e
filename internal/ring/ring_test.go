package ring

import (
	"math/rand"
	"slices"
	"testing"
)

// TestDequeMatchesSliceModel drives a deque and a plain slice with the
// same random script of pushes, pops, clears and retains, across enough
// operations to wrap and regrow the ring many times.
func TestDequeMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var d Deque[int]
	var model []int
	next := 0
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(100); {
		case op < 35:
			d.PushBack(next)
			model = append(model, next)
			next++
		case op < 55:
			d.PushFront(next)
			model = append([]int{next}, model...)
			next++
		case op < 75:
			if len(model) > 0 {
				if got := d.PopFront(); got != model[0] {
					t.Fatalf("step %d: PopFront = %d, want %d", step, got, model[0])
				}
				model = model[1:]
			}
		case op < 95:
			if len(model) > 0 {
				want := model[len(model)-1]
				if got := d.PopBack(); got != want {
					t.Fatalf("step %d: PopBack = %d, want %d", step, got, want)
				}
				model = model[:len(model)-1]
			}
		case op < 99:
			mod := rng.Intn(3) + 2
			keep := func(v *int) bool { return *v%mod != 0 }
			kept := slices.DeleteFunc(slices.Clone(model), func(v int) bool { return !keep(&v) })
			if got, want := d.Retain(keep), len(model)-len(kept); got != want {
				t.Fatalf("step %d: Retain removed %d, want %d", step, got, want)
			}
			model = kept
		default:
			d.Clear()
			model = model[:0]
		}
		if d.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, want %d", step, d.Len(), len(model))
		}
		for i, want := range model {
			if got := *d.At(i); got != want {
				t.Fatalf("step %d: At(%d) = %d, want %d", step, i, got, want)
			}
		}
	}
}

// TestDequeZeroesVacatedSlots checks that popped, retained-away and
// cleared elements are not kept reachable through the buffer.
func TestDequeZeroesVacatedSlots(t *testing.T) {
	var d Deque[*int]
	for i := 0; i < 6; i++ {
		v := i
		d.PushBack(&v)
	}
	d.PopFront()
	d.PopBack()
	d.Retain(func(p **int) bool { return **p != 2 })
	live := 0
	for _, p := range d.buf {
		if p != nil {
			live++
		}
	}
	if live != d.Len() || live != 3 {
		t.Fatalf("%d non-nil slots for %d elements, want 3", live, d.Len())
	}
	d.Clear()
	for i, p := range d.buf {
		if p != nil {
			t.Fatalf("slot %d still set after Clear", i)
		}
	}
}

func TestDequeSteadyStateAllocatesNothing(t *testing.T) {
	var d Deque[int]
	cycle := func() {
		for i := 0; i < 16; i++ {
			d.PushBack(i)
			d.PushFront(i)
		}
		d.Retain(func(v *int) bool { return *v%2 == 0 })
		for d.Len() > 1 {
			d.PopFront()
			d.PopBack()
		}
		d.Clear()
	}
	cycle() // grow the buffer to its peak
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("steady-state cycle allocates %v times, want 0", n)
	}
}

// TestDequeSteadyStateBoundsMemory is the unbounded-growth regression
// for queues that advance by popping: reslicing a Go slice (q = q[1:])
// keeps its whole backing array live, so a steady push/pop stream grew
// memory with every element ever queued. The ring stays sized to the
// high-water depth.
func TestDequeSteadyStateBoundsMemory(t *testing.T) {
	var d Deque[int64]
	for i := int64(0); i < 100000; i++ {
		d.PushBack(i)
		if got := d.PopFront(); got != i {
			t.Fatalf("pop %d = %v", i, got)
		}
	}
	if len(d.buf) > minCap {
		t.Fatalf("steady-state depth-1 deque grew its buffer to %d", len(d.buf))
	}
}

// TestDequeFIFOAcrossGrowWithOffset grows the ring while its head is
// not at slot 0; the elements must keep their order.
func TestDequeFIFOAcrossGrowWithOffset(t *testing.T) {
	var d Deque[int]
	for i := 0; i < 5; i++ {
		d.PushBack(i)
	}
	d.PopFront()
	d.PopFront()
	for i := 5; i < 12; i++ {
		d.PushBack(i) // grows past minCap with the head at slot 2
	}
	for want := 2; d.Len() > 0; want++ {
		if got := d.PopFront(); got != want {
			t.Fatalf("PopFront() = %v, want %v", got, want)
		}
	}
}
