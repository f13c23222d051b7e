package sim

import (
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestEngineFiresInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []time.Duration
	for _, d := range []time.Duration{30, 10, 20} {
		d := d
		e.Schedule(d, func() { got = append(got, d) })
	}
	e.Run()
	want := []time.Duration{10, 20, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now() = %v, want 30", e.Now())
	}
}

func TestEngineTiesFireInScheduleOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie order %v, want ascending", got)
		}
	}
}

func TestEngineAfterIsRelative(t *testing.T) {
	e := NewEngine()
	var at time.Duration
	e.Schedule(100, func() {
		e.After(50, func() { at = e.Now() })
	})
	e.Run()
	if at != 150 {
		t.Fatalf("nested After fired at %v, want 150", at)
	}
}

func TestEngineAfterNegativeClampsToNow(t *testing.T) {
	e := NewEngine()
	var at time.Duration = -1
	e.Schedule(10, func() {
		e.After(-5, func() { at = e.Now() })
	})
	e.Run()
	if at != 10 {
		t.Fatalf("After(-5) fired at %v, want 10", at)
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("schedule in past did not panic")
			}
		}()
		e.Schedule(5, func() {})
	})
	e.Run()
}

func TestEventCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(10, func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Fired() != 0 {
		t.Fatalf("Fired() = %d, want 0", e.Fired())
	}
}

func TestEventCancelDuringRun(t *testing.T) {
	e := NewEngine()
	var later Event
	fired := false
	e.Schedule(1, func() { later.Cancel() })
	later = e.Schedule(2, func() { fired = true })
	e.Run()
	if fired {
		t.Fatal("event cancelled mid-run still fired")
	}
}

func TestPendingExcludesCancelled(t *testing.T) {
	e := NewEngine()
	evs := make([]Event, 5)
	for i := range evs {
		evs[i] = e.Schedule(time.Duration(i+1), func() {})
	}
	if e.Pending() != 5 {
		t.Fatalf("Pending() = %d, want 5", e.Pending())
	}
	evs[1].Cancel()
	evs[3].Cancel()
	if e.Pending() != 3 {
		t.Fatalf("Pending() after two cancels = %d, want 3", e.Pending())
	}
	evs[3].Cancel() // double cancel is a no-op
	if e.Pending() != 3 {
		t.Fatalf("Pending() after double cancel = %d, want 3", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending() after Run = %d, want 0", e.Pending())
	}
	if e.Fired() != 3 {
		t.Fatalf("Fired() = %d, want 3", e.Fired())
	}
}

func TestStaleHandleCannotCancelRecycledEvent(t *testing.T) {
	e := NewEngine()
	first := e.Schedule(1, func() {})
	e.Step() // fires first; its event struct returns to the free list
	fired := false
	e.Schedule(2, func() { fired = true }) // reuses the recycled struct
	first.Cancel()                         // stale: must not touch the new event
	if first.Scheduled() {
		t.Fatal("fired handle still reports Scheduled")
	}
	e.Run()
	if !fired {
		t.Fatal("stale Cancel removed an unrelated recycled event")
	}
}

func TestScheduledReflectsLifecycle(t *testing.T) {
	e := NewEngine()
	var zero Event
	if zero.Scheduled() {
		t.Fatal("zero handle reports Scheduled")
	}
	ev := e.Schedule(1, func() {})
	if !ev.Scheduled() {
		t.Fatal("pending event not Scheduled")
	}
	ev.Cancel()
	if ev.Scheduled() {
		t.Fatal("cancelled event still Scheduled")
	}
}

func TestSteadyStateReusesEvents(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func() {})
	e.Step()
	if len(e.free) != 1 {
		t.Fatalf("free list has %d entries, want 1", len(e.free))
	}
	recycled := e.free[0]
	ev := e.Schedule(2, func() {})
	if ev.ev != recycled {
		t.Fatal("Schedule did not reuse the recycled event struct")
	}
	if len(e.free) != 0 {
		t.Fatalf("free list has %d entries after reuse, want 0", len(e.free))
	}
}

// Property: cancelling an arbitrary subset leaves the survivors firing in
// exactly the original (time, schedule-order) sequence.
func TestCancelPreservesOrderProperty(t *testing.T) {
	type rec struct {
		at  time.Duration
		seq int
	}
	prop := func(delays []uint16, mask []bool) bool {
		e := NewEngine()
		var got []rec
		evs := make([]Event, len(delays))
		for i, d := range delays {
			i, d := i, d
			evs[i] = e.Schedule(time.Duration(d), func() {
				got = append(got, rec{time.Duration(d), i})
			})
		}
		var want []rec
		for i, d := range delays {
			if i < len(mask) && mask[i] {
				evs[i].Cancel()
				continue
			}
			want = append(want, rec{time.Duration(d), i})
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		e.Run()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunUntilHonoursHorizon(t *testing.T) {
	e := NewEngine()
	var got []time.Duration
	for _, d := range []time.Duration{10, 20, 30} {
		d := d
		e.Schedule(d, func() { got = append(got, d) })
	}
	e.RunUntil(20)
	if len(got) != 2 {
		t.Fatalf("fired %d events, want 2", len(got))
	}
	if e.Now() != 20 {
		t.Fatalf("Now() = %v, want 20", e.Now())
	}
	e.Run()
	if len(got) != 3 {
		t.Fatalf("fired %d events after Run, want 3", len(got))
	}
}

func TestRunUntilAdvancesClockWhenIdle(t *testing.T) {
	e := NewEngine()
	e.RunUntil(500)
	if e.Now() != 500 {
		t.Fatalf("Now() = %v, want 500", e.Now())
	}
}

func TestRunUntilFiresEventsScheduledWithinHorizon(t *testing.T) {
	e := NewEngine()
	var at time.Duration
	e.Schedule(10, func() {
		e.After(5, func() { at = e.Now() })
	})
	e.RunUntil(100)
	if at != 15 {
		t.Fatalf("nested event fired at %v, want 15", at)
	}
}

func TestRunForIsRelative(t *testing.T) {
	e := NewEngine()
	e.RunUntil(100)
	e.RunFor(50)
	if e.Now() != 150 {
		t.Fatalf("Now() = %v, want 150", e.Now())
	}
}

func TestStepSkipsCancelled(t *testing.T) {
	e := NewEngine()
	ev := e.Schedule(1, func() {})
	fired := false
	e.Schedule(2, func() { fired = true })
	ev.Cancel()
	if !e.Step() {
		t.Fatal("Step() = false with live event pending")
	}
	if !fired {
		t.Fatal("live event did not fire")
	}
	if e.Step() {
		t.Fatal("Step() = true on empty queue")
	}
}

func TestFiredCounts(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.Schedule(time.Duration(i), func() {})
	}
	e.Run()
	if e.Fired() != 7 {
		t.Fatalf("Fired() = %d, want 7", e.Fired())
	}
}

// Property: regardless of the (non-negative) delays chosen, events fire in
// nondecreasing time order and the clock never moves backwards.
func TestEngineMonotonicProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		e := NewEngine()
		last := time.Duration(-1)
		ok := true
		for _, d := range delays {
			e.Schedule(time.Duration(d), func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return ok && e.Fired() == uint64(len(delays))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: RunUntil(t) fires exactly the events with timestamp <= t.
func TestRunUntilBoundaryProperty(t *testing.T) {
	prop := func(delays []uint16, horizon uint16) bool {
		e := NewEngine()
		want := 0
		fired := 0
		for _, d := range delays {
			if time.Duration(d) <= time.Duration(horizon) {
				want++
			}
			e.Schedule(time.Duration(d), func() { fired++ })
		}
		e.RunUntil(time.Duration(horizon))
		return fired == want
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestTickFollowsScheduleDelays: a window of microsecond-scale delays
// coarsens the tick so that those events land a few ticks ahead, and a
// later window of nanosecond-scale delays makes it fine again.
func TestTickFollowsScheduleDelays(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	cycle := func(delay time.Duration) {
		for i := 0; i < tickWindow; i++ {
			e.After(delay+time.Duration(i%7), fn)
			e.Step()
		}
	}
	cycle(4 * time.Microsecond)
	if got := e.TickResolution(); got != 256*time.Nanosecond {
		t.Fatalf("after 4µs delays the tick is %v, want 256ns", got)
	}
	cycle(20 * time.Nanosecond)
	if got := e.TickResolution(); got != 2*time.Nanosecond {
		t.Fatalf("after 20ns delays the tick is %v, want 2ns", got)
	}
	cycle(30 * time.Nanosecond)
	if got := e.TickResolution(); got != 2*time.Nanosecond {
		t.Fatalf("a one-bit change of the median reticked the wheel to %v", got)
	}
}
