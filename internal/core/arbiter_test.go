package core

import (
	"testing"
	"time"

	"switchflow/internal/device"
	"switchflow/internal/workload"
)

// holdGrant marks js's shard as holding the GPU, as the shard pump does
// on a grant.
func holdGrant(js *jobState) func() { return func() { js.shards[0].grant = held } }

// arbiterHarness builds a manager and bare job states for direct
// acquire/release tests.
func arbiterHarness(t *testing.T, prios ...int) (*Manager, []*jobState) {
	t.Helper()
	eng, _, m := newHarness(t, Options{}, device.ClassV100)
	_ = eng
	states := make([]*jobState, len(prios))
	for i, prio := range prios {
		cfg := workload.Config{
			Name: "j", Model: spec(t, "MobileNetV2"), Batch: 1,
			Kind: workload.KindServing, Priority: prio, Device: device.GPUID(0),
		}
		job, err := workload.NewJob(m.eng, m.machine, i+1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		states[i] = m.newJobState(job, false)
	}
	return m, states
}

func TestArbiterGrantsImmediatelyWhenFree(t *testing.T) {
	m, js := arbiterHarness(t, 1)
	granted := false
	m.acquire(0, js[0], func() { granted = true })
	if !granted {
		t.Fatal("free GPU not granted inline")
	}
}

func TestArbiterFIFOWithinPriorityClass(t *testing.T) {
	m, js := arbiterHarness(t, 1, 1, 1)
	var order []int
	m.acquire(0, js[0], holdGrant(js[0]))
	m.acquire(0, js[1], func() { order = append(order, 1) })
	m.acquire(0, js[2], func() { order = append(order, 2) })
	m.release(0)
	m.release(0)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("grant order %v, want [1 2]", order)
	}
}

func TestArbiterPriorityJumpsQueue(t *testing.T) {
	m, js := arbiterHarness(t, 1, 1, 2)
	m.acquire(0, js[0], holdGrant(js[0]))
	var order []string
	m.acquire(0, js[1], func() { order = append(order, "low") })
	m.acquire(0, js[2], func() { order = append(order, "high") })
	// The owner has no compute run, so preemption completes via the
	// deferred finish; run the engine to let it fire.
	m.eng.RunUntil(time.Second)
	if len(order) == 0 || order[0] != "high" {
		t.Fatalf("grant order %v, want high first", order)
	}
	m.release(0)
	if len(order) != 2 || order[1] != "low" {
		t.Fatalf("grant order %v, want [high low]", order)
	}
}

func TestArbiterPreemptsOnlyLowerPriority(t *testing.T) {
	m, js := arbiterHarness(t, 2, 2)
	m.acquire(0, js[0], holdGrant(js[0]))
	granted := false
	m.acquire(0, js[1], func() { granted = true })
	m.eng.RunUntil(time.Second)
	if m.Preemptions != 0 {
		t.Fatalf("equal-priority acquire caused %d preemptions", m.Preemptions)
	}
	if granted {
		t.Fatal("equal-priority waiter granted while owner holds")
	}
	m.release(0)
	if !granted {
		t.Fatal("waiter not granted after release")
	}
}
