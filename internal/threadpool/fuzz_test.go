package threadpool

import (
	"slices"
	"testing"
	"time"

	"switchflow/internal/sim"
)

// scriptOwner is a task owner for pool scripts; it runs tasks without
// submitting more, so every engine step is one worker finishing.
type scriptOwner struct{ ran int }

func (o *scriptOwner) RunTask(Task) { o.ran++ }

// poolState is what a script can observe of the pool: each worker's
// queued task IDs, front to back, and its running task's ID (-1 idle).
type poolState struct {
	queues [][]int32
	cur    []int32
}

func snapshot(p *Pool) poolState {
	s := poolState{queues: make([][]int32, len(p.workers)), cur: make([]int32, len(p.workers))}
	for i, w := range p.workers {
		for j := 0; j < w.queue.Len(); j++ {
			s.queues[i] = append(s.queues[i], w.queue.At(j).Node)
		}
		s.cur[i] = -1
		if w.busy {
			s.cur[i] = w.cur.Node
		}
	}
	return s
}

// scanVictim is the steal rule by a full scan: the longest queue, the
// lowest index on ties; -1 when every queue is empty.
func scanVictim(queues [][]int32) int {
	victim := -1
	for i, q := range queues {
		if len(q) > 0 && (victim < 0 || len(q) > len(queues[victim])) {
			victim = i
		}
	}
	return victim
}

// checkPicks replays the tasks workers started between before and after
// against the pick rule: a worker takes the front of its own queue, or,
// when that is empty, the back of the queue scanVictim picks. Workers
// start in ascending index order within one engine step or one dispatch.
// The replayed queues must then match the pool's.
func checkPicks(t *testing.T, op int, before, after poolState) {
	t.Helper()
	queues := make([][]int32, len(before.queues))
	for i, q := range before.queues {
		queues[i] = slices.Clone(q)
	}
	for i, id := range after.cur {
		if id < 0 || id == before.cur[i] {
			continue
		}
		if own := queues[i]; len(own) > 0 {
			if own[0] != id {
				t.Fatalf("op %d: worker %d started task %d, want its queue's front %d", op, i, id, own[0])
			}
			queues[i] = own[1:]
			continue
		}
		v := scanVictim(queues)
		if v < 0 || queues[v][len(queues[v])-1] != id {
			t.Fatalf("op %d: worker %d started task %d; a full scan steals from worker %d of %v",
				op, i, id, v, queues)
		}
		queues[v] = queues[v][:len(queues[v])-1]
	}
	for i := range queues {
		if !slices.Equal(queues[i], after.queues[i]) {
			t.Fatalf("op %d: worker %d queue %v, want %v after the replayed picks", op, i, after.queues[i], queues[i])
		}
	}
}

func checkCount(t *testing.T, op int, p *Pool) {
	t.Helper()
	total := 0
	for _, w := range p.workers {
		total += w.queue.Len()
	}
	if p.Queued() != total {
		t.Fatalf("op %d: Queued() = %d, queues hold %d", op, p.Queued(), total)
	}
}

// runPoolScript decodes data into pool operations and checks, after each,
// that the queued-task count equals the queues' total and that every
// task a worker picks up is the one the full-scan rule names. The first
// byte sizes the pool; every later op takes its operands from the bytes
// that follow it, so a script is its own seed.
func runPoolScript(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	eng := sim.NewEngine()
	p := New(eng, "fuzz", 1+int(data[0])%6)
	owners := []*scriptOwner{{}, {}, {}}
	pos := 1
	arg := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	var next int32
	for op := 0; pos < len(data); op++ {
		before := snapshot(p)
		switch code := arg() % 8; code {
		case 0, 1, 2: // Submit, with or without affinity, front or back
			owner, pref, flags := arg(), arg(), arg()
			task := Task{
				Owner:    owners[owner%len(owners)],
				Node:     next,
				Duration: time.Duration(flags>>1%8) * time.Microsecond,
			}
			next++
			p.Submit(task, pref%(p.Size()+1)-1, flags&1 == 1)
		case 3: // Abort by owner
			owner := owners[arg()%len(owners)]
			queued := p.Queued()
			if removed := p.Abort(owner); queued-removed != p.Queued() {
				t.Fatalf("op %d: Abort removed %d of %d queued, %d left", op, removed, queued, p.Queued())
			}
			for _, w := range p.workers {
				for j := 0; j < w.queue.Len(); j++ {
					if w.queue.At(j).Owner == owner {
						t.Fatalf("op %d: Abort left a task of its owner queued", op)
					}
				}
			}
		case 4: // SetActiveLimit, raising it dispatches queued work
			p.SetActiveLimit(arg() % (p.Size() + 2))
			checkPicks(t, op, before, snapshot(p))
		default: // one engine step: a worker finishes and picks its next task
			eng.Step()
			checkPicks(t, op, before, snapshot(p))
		}
		checkCount(t, op, p)
	}
	p.SetActiveLimit(p.Size())
	for op := -1; ; op-- {
		before := snapshot(p)
		if !eng.Step() {
			break
		}
		checkPicks(t, op, before, snapshot(p))
		checkCount(t, op, p)
	}
	if p.Queued() != 0 || p.Busy() != 0 {
		t.Fatalf("drained pool: %d queued, %d busy", p.Queued(), p.Busy())
	}
}

// poolScriptFromSeed expands seed into an n-byte script with a fixed
// xorshift stream, for reproducible fuzz seeds.
func poolScriptFromSeed(seed uint64, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		out[i] = byte(seed)
	}
	return out
}

// FuzzPoolStealMatchesScan drives the pool with decoded op scripts and
// checks its queued-task count and steal victims against a full scan.
func FuzzPoolStealMatchesScan(f *testing.F) {
	// Four workers, limit 1: three back-submits pile onto worker 0's
	// queue, then raising the limit makes idle workers steal.
	f.Add([]byte{3, 4, 1, 0, 1, 4, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1, 4, 4, 5, 5, 5})
	f.Add(poolScriptFromSeed(7, 256))
	f.Add(poolScriptFromSeed(0xbeef, 2048))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<14 {
			data = data[:1<<14]
		}
		runPoolScript(t, data)
	})
}
