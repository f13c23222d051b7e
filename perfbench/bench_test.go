package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// The self-test runs every workload at its short horizon: each must pass
// its pinned digest and its invariants, and the metrics the benchmark
// prints must be exactly the ones BENCHMARK.json declares, with the same
// units.

func TestShortHorizonPassesChecks(t *testing.T) {
	for _, w := range workloads {
		for _, variant := range []int{0, variants - 1} {
			r, err := runChild(w, runOptions{variant: variant, short: true}, false)
			if err != nil {
				t.Fatalf("%s/%d: %v", w.name, variant, err)
			}
			if len(r.Failures) > 0 {
				t.Errorf("%s/%d failed checks: %v", w.name, variant, r.Failures)
			}
			if r.Checks < 2 {
				t.Errorf("%s/%d checked only %d things", w.name, variant, r.Checks)
			}
		}
	}
}

func TestPrintedMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var defined []string
	for _, w := range workloads {
		defined = append(defined, w.name)
	}
	if !equal(names, defined) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark defines %v", names, defined)
	}
	want := func(list []struct{ Name, Unit string }) map[string]string {
		m := map[string]string{}
		for _, e := range list {
			m[e.Name] = e.Unit
		}
		return m
	}
	for _, w := range workloads {
		inProcess := func(traced bool) (repRecord, error) {
			return runChild(w, runOptions{short: true}, traced)
		}
		res, err := measure(w, false, 0, inProcess)
		if err != nil {
			t.Fatal(err)
		}
		compare(t, w.name+" end_to_end", res, want(spec.EndToEnd))
		res, err = measure(w, true, 0, inProcess)
		if err != nil {
			t.Fatal(err)
		}
		compare(t, w.name+" per_layer", res, want(spec.PerLayer))
	}
}

func compare(t *testing.T, what string, res result, want map[string]string) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", what, res.Correct, res.Attempted, res.Failed)
	}
	var got, exp []string
	for name, v := range res.Metrics {
		got = append(got, name+" "+v.Unit)
	}
	for name, unit := range want {
		exp = append(exp, name+" "+unit)
	}
	sort.Strings(got)
	sort.Strings(exp)
	if !equal(got, exp) {
		t.Errorf("%s: printed %v, BENCHMARK.json declares %v", what, got, exp)
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"switchflow/internal/device.(*Stream).submit":                         "device",
		"switchflow/internal/sim/shard.(*Group).RunUntil.func1":               "shard",
		"switchflow/internal/harness.Map[go.shape.*uint8,go.shape.struct {}]": "harness",
		"switchflow/internal/sim.(*Engine).fire":                              "sim",
		"runtime.mallocgc":                                                    "",
		"switchflow.(*Simulation).RunFor":                                     "",
	} {
		if got, _ := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
	if got := layerOf([]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}); got != "gc" {
		t.Errorf("background mark worker attributed to %q", got)
	}
	if got := layerOf([]string{"runtime.mallocgc", "switchflow/internal/device.(*GPU).launch", "switchflow/internal/sim.(*Engine).fire"}); got != "device" {
		t.Errorf("allocation under device attributed to %q", got)
	}
}
