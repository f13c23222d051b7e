package device

import "switchflow/internal/ring"

// Stream is a CUDA-style compute stream: kernels enqueued on one stream
// execute on the GPU strictly in FIFO order, one at a time. Kernels from
// different streams co-run on the GPU under its contention model — this is
// exactly the structure behind Figure 2: each TF session drives its own
// stream, so one model's kernels serialize while two models' kernels
// interleave and contend.
type Stream struct {
	gpu      *GPU
	queue    ring.Deque[Kernel]
	inflight bool
	// The in-flight kernel's own receiver and tag. The GPU is handed the
	// stream itself instead, which passes the completion on.
	curDone Completer
	curTag  int32
	// curHeals is gpu.heals when the in-flight kernel was issued; a
	// different count means the device failed and dropped it since.
	curHeals uint64
	aborted  uint64
	drainFns []func()
}

// NewStream creates a stream bound to gpu.
func NewStream(gpu *GPU) *Stream {
	return &Stream{gpu: gpu}
}

// GPU returns the device the stream issues to.
func (s *Stream) GPU() *GPU { return s.gpu }

// Enqueue appends k to the stream. It begins executing once all earlier
// kernels on this stream have completed.
func (s *Stream) Enqueue(k Kernel) {
	s.settle()
	s.queue.PushBack(k)
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
// kernels' Done receivers are never told.
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
	s.curDone = nil
	s.pump()
	s.notifyDrained()
}

func (s *Stream) pump() {
	if s.inflight || s.queue.Len() == 0 {
		return
	}
	k := s.queue.PopFront()
	s.inflight = true
	s.curDone, s.curTag, s.curHeals = k.Done, k.Tag, s.gpu.heals
	k.Done, k.Tag = s, 0
	s.gpu.Submit(k)
}

// KernelDone implements Completer for the kernels the stream issues; only
// its GPU calls it. It tells the in-flight kernel's own receiver, issues
// the next kernel, and fires drain waiters.
func (s *Stream) KernelDone(int32) {
	done, tag := s.curDone, s.curTag
	s.inflight = false
	s.curDone = nil
	if done != nil {
		done.KernelDone(tag)
	}
	s.pump()
	s.notifyDrained()
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
