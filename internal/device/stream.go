package device

import "switchflow/internal/ring"

// Stream is a CUDA-style compute stream: kernels enqueued on one stream
// execute on the GPU strictly in FIFO order, one at a time. Kernels from
// different streams co-run on the GPU under its contention model — this is
// exactly the structure behind Figure 2: each TF session drives its own
// stream, so one model's kernels serialize while two models' kernels
// interleave and contend.
type Stream struct {
	gpu  *GPU
	slot int32     // the stream's receiver index on gpu
	recv receivers // the runs that enqueue here, by Kernel.Recv
	// queue holds the backlog; a record's recv is an index into s.recv.
	queue    ring.Deque[record]
	inflight bool
	// The in-flight kernel's own receiver and tag. The GPU is handed the
	// stream's slot instead, and the stream passes the completion on.
	curRecv int32
	curTag  int32
	// curReleased marks that curRecv was released while its kernel ran;
	// its slot is freed once that kernel completes or is lost.
	curReleased bool
	// curHeals is gpu.heals when the in-flight kernel was issued; a
	// different count means the device failed and dropped it since.
	curHeals uint64
	aborted  uint64
	drainFns []func()
}

// NewStream creates a stream bound to gpu and registers it there.
func NewStream(gpu *GPU) *Stream {
	s := &Stream{gpu: gpu}
	s.slot = gpu.Register(s)
	return s
}

// GPU returns the device the stream issues to.
func (s *Stream) GPU() *GPU { return s.gpu }

// Register returns c's receiver index on this stream, for Kernel.Recv.
// Each executor run registers once and releases its slot when it ends.
func (s *Stream) Register(c Completer) int32 { return s.recv.register(c) }

// Release frees receiver id's slot for reuse, so the stream keeps no
// finished receiver reachable. The receiver must have no kernel left in
// the backlog (it finished, or Abort discarded its kernels). If its
// kernel is in flight, the slot is freed when that kernel completes,
// which the receiver is still told of, or when the stream finds that
// the GPU dropped it. Releasing 0 does nothing.
func (s *Stream) Release(id int32) {
	if id == 0 {
		return
	}
	if s.inflight && s.curRecv == id {
		s.curReleased = true
		return
	}
	s.recv[id] = nil
}

// Enqueue appends k to the stream. It begins executing once all earlier
// kernels on this stream have completed.
func (s *Stream) Enqueue(k Kernel) {
	s.settle()
	if !s.inflight && s.queue.Len() == 0 {
		s.issue(newRecord(k))
		return
	}
	s.queue.PushBack(newRecord(k))
	s.pump()
}

// Pending returns the number of kernels waiting behind the in-flight one.
func (s *Stream) Pending() int { return s.queue.Len() }

// InFlight reports whether a kernel from this stream is executing.
func (s *Stream) InFlight() bool { return s.inflight && !s.lost() }

// Abort discards every queued (not yet issued) kernel. The in-flight
// kernel, if any, runs to completion — the paper's preemption lets
// dispatched kernels finish because there is no mechanism to selectively
// stop them (§3.3). Returns the number of kernels discarded. Aborted
// kernels' receivers are never told.
func (s *Stream) Abort() int {
	n := s.queue.Len()
	s.queue.Clear()
	s.aborted += uint64(n)
	return n
}

// Aborted returns the total number of kernels ever discarded by Abort.
func (s *Stream) Aborted() uint64 { return s.aborted }

// Drain invokes fn once the in-flight kernel (if any) completes and the
// queue is empty. With an empty stream it fires immediately (inline).
func (s *Stream) Drain(fn func()) {
	s.settle()
	if !s.inflight && s.queue.Len() == 0 {
		fn()
		return
	}
	s.drainFns = append(s.drainFns, fn)
}

// lost reports whether the GPU dropped the in-flight kernel: it failed
// and healed since the kernel was issued. While the device stays failed
// the stream keeps waiting, exactly like a launch against a lost context.
func (s *Stream) lost() bool { return s.curHeals != s.gpu.heals }

// settle releases the in-flight slot of a kernel the GPU dropped, whose
// completion will never come, and moves the backlog on. Without it a
// stream whose GPU failed and healed would stay wedged forever.
func (s *Stream) settle() {
	if !s.inflight || !s.lost() {
		return
	}
	s.inflight = false
	s.endCurrent()
	s.pump()
	s.notifyDrained()
}

// endCurrent forgets the in-flight kernel's receiver, freeing its slot
// if it was released while the kernel ran.
func (s *Stream) endCurrent() {
	if s.curReleased {
		s.recv[s.curRecv] = nil
		s.curReleased = false
	}
	s.curRecv = 0
}

func (s *Stream) pump() {
	if s.inflight || s.queue.Len() == 0 {
		return
	}
	s.issue(s.queue.PopFront())
}

// issue submits r to the GPU as the stream's in-flight kernel.
func (s *Stream) issue(r record) {
	s.inflight = true
	s.curRecv, s.curTag, s.curHeals = r.recv, r.tag, s.gpu.heals
	r.recv, r.tag = s.slot, 0
	s.gpu.submit(r)
}

// KernelDone implements Completer for the kernels the stream issues; only
// its GPU calls it. It tells the in-flight kernel's own receiver, issues
// the next kernel, and fires drain waiters.
func (s *Stream) KernelDone(int32) {
	var c Completer
	if s.curRecv != 0 {
		c = s.recv[s.curRecv]
	}
	tag := s.curTag
	s.inflight = false
	s.endCurrent()
	if c != nil {
		c.KernelDone(tag)
	}
	s.pump()
	s.notifyDrained()
}

// KernelName implements Completer: only its GPU calls it, for the
// in-flight kernel, whose own receiver knows the name.
func (s *Stream) KernelName(int32) string {
	if s.curRecv == 0 {
		return ""
	}
	return s.recv[s.curRecv].KernelName(s.curTag)
}

func (s *Stream) notifyDrained() {
	if s.inflight || s.queue.Len() != 0 || len(s.drainFns) == 0 {
		return
	}
	fns := s.drainFns
	s.drainFns = nil
	for _, fn := range fns {
		fn()
	}
}
