// Package threadpool models TF's executor worker pools in virtual time:
// a fixed set of worker threads with per-worker local queues, work
// stealing, and owner-tagged abort. SwitchFlow shares one global pool
// among all sessions and keeps a temporary pool for preempted jobs (§3.2,
// §3.3); the active-thread limit models its wakeup-signal mechanism.
package threadpool

import (
	"time"

	"switchflow/internal/ring"
	"switchflow/internal/sim"
)

// Task is one unit of worker-thread work (a CPU op, or the launch of a GPU
// kernel). It is a plain value: the pool copies it through its worker
// queues and hands it back to its Owner, so submitting one allocates
// nothing.
type Task struct {
	// Owner runs the task when its duration elapses, still "on" the
	// worker, and tags it for Abort; typically an executor run. A task
	// without an owner only occupies its worker.
	Owner Owner
	// Node and Epoch are the owner's tags, handed back unchanged: an
	// executor run passes the node ID and its suspend epoch.
	Node  int32
	Epoch int32
	// Duration is how long the task occupies a worker thread.
	Duration time.Duration
}

// Owner runs tasks. Owners are compared by identity in Abort, so they
// must be comparable (pointers, in practice).
type Owner interface {
	RunTask(t Task)
}

// Pool is a set of virtual worker threads.
type Pool struct {
	// Name labels the pool ("global", "temporary").
	Name string

	eng         *sim.Engine
	workers     []*worker
	activeLimit int
	busy        int
	// queued is the number of tasks in all local queues, so a worker
	// whose own queue is empty skips the steal scan when nothing waits.
	queued   int
	busyTime time.Duration
}

type worker struct {
	pool   *Pool
	queue  ring.Deque[Task]
	busy   bool
	cur    Task   // the running task, while busy
	finish func() // w.done, bound once
}

// New creates a pool of n workers, all active.
func New(eng *sim.Engine, name string, n int) *Pool {
	p := &Pool{Name: name, eng: eng, activeLimit: n}
	for i := 0; i < n; i++ {
		w := &worker{pool: p}
		w.finish = w.done
		p.workers = append(p.workers, w)
	}
	return p
}

// Size returns the number of worker threads.
func (p *Pool) Size() int { return len(p.workers) }

// ActiveLimit returns the current wakeup-signal limit.
func (p *Pool) ActiveLimit() int { return p.activeLimit }

// SetActiveLimit changes how many workers may run concurrently. Lowering
// it does not interrupt running tasks; raising it lets idle workers pick
// up queued work immediately (§3.3: thread counts in the two pools are
// balanced against the core count).
func (p *Pool) SetActiveLimit(n int) {
	if n < 0 {
		n = 0
	}
	if n > len(p.workers) {
		n = len(p.workers)
	}
	p.activeLimit = n
	p.dispatch()
}

// Busy returns the number of workers currently executing a task.
func (p *Pool) Busy() int { return p.busy }

// Queued returns the number of tasks waiting in local queues.
func (p *Pool) Queued() int { return p.queued }

// BusyTime returns accumulated worker-seconds of executed task time.
func (p *Pool) BusyTime() time.Duration { return p.busyTime }

// Submit enqueues t. preferred selects the worker whose local queue should
// hold the task (the parent op's worker for inexpensive successors, §2.1);
// pass -1 for no affinity. front pushes to the head of the local queue
// (inexpensive ops ride immediately after their parent).
func (p *Pool) Submit(t Task, preferred int, front bool) {
	if t.Duration < 0 {
		t.Duration = 0
	}
	w := p.pickWorker(preferred)
	if !w.busy && p.busy < p.activeLimit {
		p.start(w, t)
		return
	}
	// The preferred worker is busy; an idle worker steals the task right
	// away if the active limit allows (work stealing keeps queues short).
	if idle := p.idleWorker(); idle != nil && p.busy < p.activeLimit {
		p.start(idle, t)
		return
	}
	if front {
		w.queue.PushFront(t)
	} else {
		w.queue.PushBack(t)
	}
	p.queued++
}

// Abort removes every queued task tagged with owner and returns the count.
// Running tasks are unaffected (a thread cannot be yanked mid-op; the
// paper aborts queued nodes and lets running ones finish).
func (p *Pool) Abort(owner Owner) int {
	removed := 0
	for _, w := range p.workers {
		removed += w.queue.Retain(func(t *Task) bool { return t.Owner != owner })
	}
	p.queued -= removed
	return removed
}

func (p *Pool) pickWorker(preferred int) *worker {
	if preferred >= 0 && preferred < len(p.workers) {
		return p.workers[preferred]
	}
	// No affinity: prefer an idle worker, else the shortest queue.
	if w := p.idleWorker(); w != nil {
		return w
	}
	best := p.workers[0]
	for _, w := range p.workers[1:] {
		if w.queue.Len() < best.queue.Len() {
			best = w
		}
	}
	return best
}

func (p *Pool) idleWorker() *worker {
	for _, w := range p.workers {
		if !w.busy {
			return w
		}
	}
	return nil
}

func (p *Pool) start(w *worker, t Task) {
	w.busy = true
	w.cur = t
	p.busy++
	p.busyTime += t.Duration
	p.eng.After(t.Duration, w.finish)
}

// done runs when the worker's current task's duration elapses: the owner
// runs it, then the worker looks for its next task.
func (w *worker) done() {
	t := w.cur
	w.cur = Task{}
	if t.Owner != nil {
		t.Owner.RunTask(t)
	}
	p := w.pool
	w.busy = false
	p.busy--
	p.next(w)
}

// next lets worker w pick its next task: own queue first, then steal from
// the longest peer queue, else go idle.
func (p *Pool) next(w *worker) {
	if p.busy >= p.activeLimit || p.queued == 0 {
		return
	}
	p.queued--
	if w.queue.Len() > 0 {
		p.start(w, w.queue.PopFront())
		return
	}
	p.start(w, p.longestQueue().queue.PopBack()) // steal from the tail
}

// dispatch pairs idle workers with queued work, used after raising the
// active limit.
func (p *Pool) dispatch() {
	for p.busy < p.activeLimit {
		w := p.idleWorker()
		if w == nil {
			return
		}
		before := p.busy
		p.next(w)
		if p.busy == before {
			return // no queued work anywhere
		}
	}
}

// longestQueue returns the worker with the most queued tasks, the lowest
// index on ties. Call it only while p.queued > 0.
func (p *Pool) longestQueue() *worker {
	best := p.workers[0]
	for _, w := range p.workers[1:] {
		if w.queue.Len() > best.queue.Len() {
			best = w
		}
	}
	return best
}
