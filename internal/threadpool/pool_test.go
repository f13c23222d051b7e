package threadpool

import (
	"slices"
	"testing"
	"testing/quick"
	"time"

	"switchflow/internal/sim"
)

// recorder is a test Owner that logs the Node of every task it runs.
type recorder struct{ ran []int32 }

func (r *recorder) RunTask(t Task) { r.ran = append(r.ran, t.Node) }

func submitN(p *Pool, n int, d time.Duration, owner *recorder) {
	for i := 0; i < n; i++ {
		p.Submit(Task{Owner: owner, Duration: d}, -1, false)
	}
}

func TestPoolRunsTasksInParallel(t *testing.T) {
	eng := sim.NewEngine()
	p := New(eng, "global", 4)
	done := &recorder{}
	submitN(p, 4, 10*time.Millisecond, done)
	eng.Run()
	if len(done.ran) != 4 {
		t.Fatalf("completed %d tasks, want 4", len(done.ran))
	}
	if eng.Now() != 10*time.Millisecond {
		t.Fatalf("4 tasks on 4 workers took %v, want 10ms", eng.Now())
	}
}

func TestPoolQueuesBeyondWorkers(t *testing.T) {
	eng := sim.NewEngine()
	p := New(eng, "global", 2)
	done := &recorder{}
	submitN(p, 4, 10*time.Millisecond, done)
	eng.Run()
	if len(done.ran) != 4 {
		t.Fatalf("completed %d tasks, want 4", len(done.ran))
	}
	if eng.Now() != 20*time.Millisecond {
		t.Fatalf("4 tasks on 2 workers took %v, want 20ms", eng.Now())
	}
}

func TestPoolWorkStealing(t *testing.T) {
	// All tasks queued on worker 0; idle workers must steal them.
	eng := sim.NewEngine()
	p := New(eng, "global", 4)
	done := &recorder{}
	// First task starts on worker 0; the rest pile onto its queue only if
	// no one is idle — but workers 1-3 are idle, so they run immediately.
	for i := 0; i < 4; i++ {
		p.Submit(Task{Owner: done, Duration: 10 * time.Millisecond}, 0, false)
	}
	eng.Run()
	if eng.Now() != 10*time.Millisecond {
		t.Fatalf("stealable tasks took %v, want 10ms (ran in parallel)", eng.Now())
	}
	if len(done.ran) != 4 {
		t.Fatalf("completed %d, want 4", len(done.ran))
	}
}

func TestPoolAffinityQueueWhenSaturated(t *testing.T) {
	eng := sim.NewEngine()
	p := New(eng, "global", 1)
	const first, back, front = 1, 2, 3
	order := &recorder{}
	p.Submit(Task{Owner: order, Node: first, Duration: time.Millisecond}, 0, false)
	p.Submit(Task{Owner: order, Node: back, Duration: time.Millisecond}, 0, false)
	p.Submit(Task{Owner: order, Node: front, Duration: time.Millisecond}, 0, true)
	eng.Run()
	want := []int32{first, front, back}
	if !slices.Equal(order.ran, want) {
		t.Fatalf("execution order %v, want %v", order.ran, want)
	}
}

func TestPoolAbortRemovesQueuedOnly(t *testing.T) {
	eng := sim.NewEngine()
	p := New(eng, "global", 1)
	const running, queuedVictim, queuedOther = 1, 2, 3
	victim, other := &recorder{}, &recorder{}
	p.Submit(Task{Owner: victim, Node: running, Duration: 10 * time.Millisecond}, 0, false)
	p.Submit(Task{Owner: victim, Node: queuedVictim, Duration: time.Millisecond}, 0, false)
	p.Submit(Task{Owner: other, Node: queuedOther, Duration: time.Millisecond}, 0, false)
	eng.Schedule(time.Millisecond, func() {
		if got := p.Abort(victim); got != 1 {
			t.Errorf("Abort removed %d, want 1", got)
		}
	})
	eng.Run()
	if !slices.Equal(victim.ran, []int32{running}) || !slices.Equal(other.ran, []int32{queuedOther}) {
		t.Fatalf("victim ran %v, other ran %v; want [%d] and [%d]",
			victim.ran, other.ran, running, queuedOther)
	}
}

func TestPoolActiveLimitThrottles(t *testing.T) {
	eng := sim.NewEngine()
	p := New(eng, "global", 4)
	p.SetActiveLimit(1)
	done := &recorder{}
	submitN(p, 4, 10*time.Millisecond, done)
	eng.Run()
	if eng.Now() != 40*time.Millisecond {
		t.Fatalf("limit-1 pool took %v, want 40ms", eng.Now())
	}
	if len(done.ran) != 4 {
		t.Fatalf("completed %d, want 4", len(done.ran))
	}
}

func TestPoolRaisingLimitDispatchesQueued(t *testing.T) {
	eng := sim.NewEngine()
	p := New(eng, "global", 4)
	p.SetActiveLimit(1)
	submitN(p, 4, 10*time.Millisecond, &recorder{})
	eng.Schedule(5*time.Millisecond, func() { p.SetActiveLimit(4) })
	eng.Run()
	// First task runs 0-10ms; the other three start at 5ms.
	if eng.Now() != 15*time.Millisecond {
		t.Fatalf("after raising limit run took %v, want 15ms", eng.Now())
	}
}

func TestPoolCounters(t *testing.T) {
	eng := sim.NewEngine()
	p := New(eng, "global", 2)
	submitN(p, 3, 10*time.Millisecond, &recorder{})
	if p.Busy() != 2 {
		t.Fatalf("Busy() = %d, want 2", p.Busy())
	}
	if p.Queued() != 1 {
		t.Fatalf("Queued() = %d, want 1", p.Queued())
	}
	eng.Run()
	if p.Busy() != 0 || p.Queued() != 0 {
		t.Fatalf("after drain Busy=%d Queued=%d", p.Busy(), p.Queued())
	}
	if p.BusyTime() != 30*time.Millisecond {
		t.Fatalf("BusyTime() = %v, want 30ms", p.BusyTime())
	}
}

func TestPoolZeroDurationTask(t *testing.T) {
	eng := sim.NewEngine()
	p := New(eng, "global", 1)
	done := &recorder{}
	p.Submit(Task{Owner: done, Duration: 0}, -1, false)
	eng.Run()
	if len(done.ran) != 1 {
		t.Fatal("zero-duration task never ran")
	}
}

// Property: every submitted task runs exactly once, for any worker count,
// task count, and duration mix.
func TestPoolCompletionProperty(t *testing.T) {
	prop := func(workerCount uint8, durs []uint8) bool {
		n := int(workerCount%8) + 1
		eng := sim.NewEngine()
		p := New(eng, "global", n)
		done := &recorder{}
		for i, d := range durs {
			p.Submit(Task{
				Owner:    done,
				Node:     int32(i),
				Duration: time.Duration(d) * 100 * time.Microsecond,
			}, int(d)%n, d%2 == 0)
		}
		eng.Run()
		ran := slices.Clone(done.ran)
		slices.Sort(ran)
		for i, node := range ran {
			if node != int32(i) {
				return false
			}
		}
		return len(ran) == len(durs) && p.Busy() == 0 && p.Queued() == 0
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: with W workers and identical task durations d, makespan is
// ceil(n/W) * d — the pool never idles a worker while work is queued.
func TestPoolMakespanProperty(t *testing.T) {
	prop := func(workerCount, taskCount uint8) bool {
		w := int(workerCount%6) + 1
		n := int(taskCount % 40)
		eng := sim.NewEngine()
		p := New(eng, "global", w)
		d := time.Millisecond
		for i := 0; i < n; i++ {
			p.Submit(Task{Duration: d}, i%w, false)
		}
		eng.Run()
		if n == 0 {
			return eng.Now() == 0
		}
		waves := (n + w - 1) / w
		return eng.Now() == time.Duration(waves)*d
	}
	cfg := &quick.Config{MaxCount: 80}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// counter is a test Owner that only counts the tasks it runs.
type counter struct{ n int }

func (c *counter) RunTask(Task) { c.n++ }

// TestPoolSubmitRunCycleAllocatesNothing pins the pool's share of the
// kernel path at zero allocations once its queues have grown: tasks are
// values in ring-buffer deques, and each worker's completion callback is
// bound once. The cycle covers the front push, the tail steal and Abort.
func TestPoolSubmitRunCycleAllocatesNothing(t *testing.T) {
	eng := sim.NewEngine()
	p := New(eng, "global", 2)
	kept, aborted := &counter{}, &counter{}
	cycle := func() {
		// The first two tasks occupy both workers; the rest queue on
		// worker 0, alternating front and back pushes. Worker 1 then
		// drains worker 0's queue by stealing from its tail.
		for i := 0; i < 8; i++ {
			p.Submit(Task{Owner: kept, Node: int32(i), Duration: time.Millisecond}, 0, i%2 == 0)
			p.Submit(Task{Owner: aborted, Node: int32(i), Duration: time.Millisecond}, 0, i%2 == 1)
		}
		if got := p.Abort(aborted); got != 7 {
			t.Errorf("Abort removed %d tasks, want 7 (one was running)", got)
		}
		eng.Run()
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("Submit/run cycle allocates %v times, want 0", n)
	}
	if kept.n != 8*102 || aborted.n != 102 {
		t.Fatalf("ran %d kept and %d aborted-owner tasks, want %d and %d",
			kept.n, aborted.n, 8*102, 102)
	}
}
