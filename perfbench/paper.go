package main

import (
	"fmt"
	"math/rand"

	"switchflow/internal/cost"
	"switchflow/internal/device"
	"switchflow/internal/experiments"
	"switchflow/internal/models"
)

// paper is a fixed subset of the paper's own runs at their default sizes,
// the way swbench runs them (harness parallelism = NumCPU). The runs take
// no random inputs: the seed only permutes the order they run in, and the
// digest covers their rows in canonical order.
type paperRun struct {
	name string
	run  func() any
}

func paperRuns(short bool) []paperRun {
	n := 200 // requests or iterations per cell, swbench's defaults
	if short {
		n = 10
	}
	return []paperRun{
		{"Table1", func() any { return experiments.Table1() }},
		{"Figure6", func() any { return experiments.Figure6(n) }},
		{"Figure9", func() any { return experiments.Figure9(n) }},
		{"PreemptionOverhead", func() any { return experiments.PreemptionOverhead("VGG16", n) }},
		{"Gandiva", func() any { return experiments.Gandiva(n) }},
		{"Ablation", func() any { return experiments.Ablation(n) }},
		{"LoadSweep", func() any { return experiments.LoadSweep(n) }},
		{"EagerComparison", func() any { return experiments.EagerComparison() }},
	}
}

type paperSystem struct {
	runs  []paperRun
	order []int
	rows  []any
}

// setupPaper does the construction every cell of the paper's runs starts
// with, for every model in the zoo: build the training and inference
// graphs and price their kernels on a V100. The cells repeat it inside
// their own runs; timing it here isolates it as setup_s.
func setupPaper(o runOptions) (system, error) {
	for _, name := range models.Names() {
		spec, err := models.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, cfg := range []models.BuildConfig{
			{Batch: 32, Training: true, Device: device.GPUID(0)},
			{Batch: 1, Device: device.GPUID(0)},
		} {
			g, err := spec.Build(cfg)
			if err != nil {
				return nil, fmt.Errorf("build %s: %w", name, err)
			}
			for _, n := range g.Nodes() {
				cost.KernelDuration(n, device.ClassV100)
			}
		}
	}
	runs := paperRuns(o.short)
	s := &paperSystem{runs: runs, rows: make([]any, len(runs))}
	s.order = rand.New(rand.NewSource(int64(o.variant))).Perm(len(runs))
	return s, nil
}

func (s *paperSystem) run(st *stepTimer) {
	for _, i := range s.order {
		st.time(func() { s.rows[i] = s.runs[i].run() })
	}
}

func (s *paperSystem) check() outcome {
	var out outcome
	d := newDigest()
	for i, r := range s.runs {
		d.add(r.name, fmt.Sprintf("%+v", s.rows[i]))
		out.expect(s.rows[i] != nil, "%s produced no rows", r.name)
	}
	out.digest = d.sum()
	return out
}
