package core

import (
	"fmt"

	"switchflow/internal/executor"
	"switchflow/internal/workload"
)

// Group is a set of correlated jobs sharing one input pipeline (§3.4,
// Listing 1): the master's CPU preprocessing stage runs once per batch,
// the processed tensor is cached immutably on the GPU, and every member's
// GPU executor consumes it in lockstep round-robin before the group moves
// to the next batch. Members run through the shard pump like every job;
// their input gate is the group's stage, so a preempted member stays
// suspended in its turn and never starts an input stage of its own.
type Group struct {
	m       *Manager
	members []*jobState

	inputReady   int
	inputRunning bool
	depth        int
	turn         int
	busy         bool
	stopped      bool
}

// AddSharedGroup admits a set of jobs that share the data preprocessing
// stage. All members must target the same device and batch size (they are
// trained/served in lockstep on identical input batches).
func (m *Manager) AddSharedGroup(cfgs []workload.Config) (*Group, []*workload.Job, error) {
	if len(cfgs) < 2 {
		return nil, nil, fmt.Errorf("core: a shared group needs at least 2 jobs, got %d", len(cfgs))
	}
	for _, cfg := range cfgs {
		// Groups run in lockstep on one device; an elastic member's binding
		// could move mid-group, so the combination is rejected.
		if len(cfg.VNodes) > 0 {
			return nil, nil, fmt.Errorf("core: shared group member %q cannot use virtual nodes", cfg.Name)
		}
	}
	for _, cfg := range cfgs[1:] {
		if cfg.Device != cfgs[0].Device {
			return nil, nil, fmt.Errorf("core: shared group members must target one device")
		}
		if cfg.Batch != cfgs[0].Batch {
			return nil, nil, fmt.Errorf("core: shared group members must share the batch size")
		}
	}
	g := &Group{m: m, depth: 2}
	var jobs []*workload.Job
	for _, cfg := range cfgs {
		js, err := m.admit(cfg, true)
		if err != nil {
			return nil, nil, err
		}
		js.group = g
		g.members = append(g.members, js)
		jobs = append(jobs, js.job)
	}
	m.groups = append(m.groups, g)
	m.eng.After(0, g.pump)
	return g, jobs, nil
}

// Stop halts the group after in-flight stages complete.
func (g *Group) Stop() { g.stopped = true }

// Iterations returns the completed iteration count of each member.
func (g *Group) Iterations() []int {
	counts := make([]int, len(g.members))
	for i, js := range g.members {
		counts[i] = js.job.Iterations
	}
	return counts
}

// pump drives the group's lockstep schedule: a shared CPU input stage
// (prefetching up to depth batches ahead) and one member GPU executor at a
// time, round-robin.
func (g *Group) pump() {
	if g.stopped {
		return
	}
	g.pumpInput()
	g.pumpTurn()
}

func (g *Group) pumpInput() {
	if g.inputRunning || g.inputReady >= g.depth {
		return
	}
	master := g.members[0]
	dev := master.dev()
	v, err := master.job.Version(dev)
	if err != nil {
		master.job.Crash(err)
		g.m.emitJobLost(master, dev, "no graph version")
		return
	}
	if v.Input == nil {
		g.inputReady++
		return
	}
	g.inputRunning = true
	_, err = master.job.StartExec(v.Input, executor.Config{Pool: g.m.global}, func() {
		g.inputRunning = false
		g.inputReady++
		g.pump()
	})
	if err != nil {
		master.job.Crash(err)
		g.m.emitJobLost(master, dev, "input start failed")
		g.inputRunning = false
	}
}

// pumpTurn hands the cached batch to the member whose turn it is and
// pumps it. A batch is consumed once every member has processed it.
func (g *Group) pumpTurn() {
	if g.busy || g.inputReady == 0 {
		return
	}
	js := g.members[g.turn]
	if js.job.Crashed() {
		g.advanceTurn()
		return
	}
	g.busy = true
	js.job.SupplyInput()
	g.m.pump(js)
}

// memberDone ends the current member's turn (its step completed or it
// failed).
func (g *Group) memberDone() {
	g.busy = false
	g.advanceTurn()
}

// advanceTurn moves to the next member; when every member has seen the
// batch, it is released and the group fetches the next one.
func (g *Group) advanceTurn() {
	g.turn++
	if g.turn == len(g.members) {
		g.turn = 0
		g.inputReady--
	}
	g.pump()
}
