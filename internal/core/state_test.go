package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"switchflow/internal/device"
)

// TestPhaseTransitionTable walks every (from, to) pair: the edges the
// table lists (plus any phase -> stopped) succeed, every other edge
// panics.
func TestPhaseTransitionTable(t *testing.T) {
	_, _, m := newHarness(t, Options{})
	job, err := m.AddJob(trainCfg(t, "j", "MobileNetV2", 16, 1, device.CPUID))
	if err != nil {
		t.Fatal(err)
	}
	js := m.stateOf(job)
	legal := 0
	for from := running; from <= stopped; from++ {
		for to := running; to <= stopped; to++ {
			want := to == stopped && from != stopped
			for _, p := range phaseEdges[from] {
				want = want || p == to
			}
			if want {
				legal++
			}
			t.Run(fmt.Sprintf("%v->%v", from, to), func(t *testing.T) {
				js.phase = from
				panicked := func() (p bool) {
					defer func() { p = recover() != nil }()
					js.to(to)
					return false
				}()
				if panicked == want {
					t.Fatalf("legal=%v but panicked=%v", want, panicked)
				}
				if want && js.phase != to {
					t.Fatalf("phase %v after the move, want %v", js.phase, to)
				}
			})
		}
	}
	if legal == 0 {
		t.Fatal("the table allows no edge")
	}
}

// TestIllegalTransitionsPanic names the edges a scheduling bug would
// take.
func TestIllegalTransitionsPanic(t *testing.T) {
	_, _, m := newHarness(t, Options{})
	job, err := m.AddJob(trainCfg(t, "j", "MobileNetV2", 16, 1, device.CPUID))
	if err != nil {
		t.Fatal(err)
	}
	js := m.stateOf(job)
	for _, tc := range []struct {
		name     string
		from, to phase
	}{
		{"gang resume without a gang suspend", running, gangSuspended},
		{"checkpoint mid gang drain", gangSuspending, checkpointed},
		{"restore that was never checkpointed", running, restoring},
		{"checkpoint resumed without a restore", checkpointed, running},
		{"suspend resumed as a gang", suspending, gangSuspended},
		{"restart without a fault", running, running},
		{"leaving stopped", stopped, running},
		{"stopping twice", stopped, stopped},
	} {
		t.Run(tc.name, func(t *testing.T) {
			js.phase = tc.from
			defer func() {
				if recover() == nil {
					t.Fatalf("%v -> %v did not panic", tc.from, tc.to)
				}
			}()
			js.to(tc.to)
		})
	}
}

// TestSettleLeavesStoppedJobs checks that an in-flight phase ending
// after StopJob leaves the job stopped.
func TestSettleLeavesStoppedJobs(t *testing.T) {
	_, _, m := newHarness(t, Options{})
	job, err := m.AddJob(trainCfg(t, "j", "MobileNetV2", 16, 1, device.CPUID))
	if err != nil {
		t.Fatal(err)
	}
	js := m.stateOf(job)
	js.to(suspending)
	m.StopJob(job)
	m.StopJob(job)
	js.settle(suspending, running)
	if js.phase != stopped {
		t.Fatalf("phase %v, want stopped", js.phase)
	}
}

// TestDebugJobStateShowsShards checks that the diagnostic names the
// phase and every shard's device and grant, for an elastic job too.
func TestDebugJobStateShowsShards(t *testing.T) {
	eng, _, m := newHarness(t, Options{}, device.ClassV100, device.ClassV100)
	cfg := trainCfg(t, "e", "MobileNetV2", 16, 1, device.GPUID(0))
	cfg.VNodes = []device.ID{device.GPUID(0), device.GPUID(1)}
	job, err := m.AddJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(500 * time.Millisecond)
	st := m.DebugJobState(job)
	for _, want := range []string{"phase=running", "[0 gpu:0 ", "[1 gpu:1 "} {
		if !strings.Contains(st, want) {
			t.Fatalf("DebugJobState = %q, missing %q", st, want)
		}
	}
}
