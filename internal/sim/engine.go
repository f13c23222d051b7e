// Package sim provides a deterministic discrete-event simulation engine.
//
// All SwitchFlow experiments run in virtual time: durations are
// time.Duration values measured from the start of the simulation, and every
// state change happens inside an event callback. Events scheduled for the
// same instant fire in the order they were scheduled, which makes runs
// bit-for-bit reproducible.
//
// The engine is tuned for the experiment sweeps' hot path. The pending set
// is a hierarchical timing wheel: three levels of 256 buckets each hold the
// dense short-horizon events at amortized O(1) per schedule/fire/cancel,
// and a 4-ary min-heap catches the far-future overflow beyond the wheel's
// span. The wheel's tick is adaptive: every tickWindow schedules it is
// re-derived from the median schedule delay of that window, so the typical
// event lands in level 0 a few ticks ahead of the cursor and is placed
// once, not cascaded down. Nanosecond-spaced micro-benchmarks and
// microsecond-spaced kernel cycles each get a tick to match, in either
// direction. Fired and cancelled events return to a free list so
// steady-state Schedule/Step cycles allocate nothing, and Cancel physically
// unlinks the event instead of leaving a tombstone behind.
//
// Ordering contract: events fire in strict (at, seq) order — virtual time,
// then schedule order — exactly as the PR-1 heap did. HeapEngine retains
// that heap as a reference implementation; differential tests drive both
// with randomized schedule/cancel/step scripts and assert identical firing
// sequences.
package sim

import (
	"fmt"
	"math/bits"
	"slices"
	"time"
)

// Wheel geometry. Three levels of 256 buckets cover 2^24 ticks; events
// beyond that land in the overflow heap until the cursor approaches them.
const (
	wheelBits    = 8
	wheelBuckets = 1 << wheelBits
	wheelMask    = wheelBuckets - 1
	wheelLevels  = 3
	wheelSpan    = wheelBits * wheelLevels // log2(ticks covered by the wheel)

	// tickWindow is the number of schedules whose delays decide the next
	// tick. Each window's median delay sets the tick so that the median
	// event lands 8 to 16 (2^tickMedianBits) ticks ahead: in level 0 (256
	// ticks) with headroom for the slower tail, yet coarse enough that
	// the common delays rarely cross into level 1 and cascade.
	tickWindow     = 1024
	tickMedianBits = 4
	// tickHysteresis is the smallest shift change worth a retick: a
	// median wandering across one power of two leaves the wheel alone.
	tickHysteresis = 2

	// insertWalkCap bounds a single sorted-insert walk. Past it the event
	// is appended and the bucket marked dirty — sorted lazily (at drain,
	// or when it becomes the firing candidate) so one fat bucket costs
	// O(b log b) once instead of O(b) per insert.
	insertWalkCap = 16
)

// Event locations, stored in event.loc: wheel levels are 0..wheelLevels-1.
const (
	locOverflow int8 = -1 // in the overflow heap, at event.index
	locFree     int8 = -2 // fired/cancelled, on the free list
)

// Event is a handle to a scheduled callback, returned by Schedule and
// After. The zero value is a valid "no event" handle. Handles are small
// values; copying one copies the right to cancel the same event.
type Event struct {
	ev  *event
	seq uint64
	at  time.Duration
}

// At reports the virtual time the event is (or was) scheduled for.
func (h Event) At() time.Duration { return h.at }

// Cancel prevents the event from firing and removes it from the engine's
// pending set. Cancelling the zero handle, or an event that already fired
// or was already cancelled, is a no-op: the handle carries the scheduling
// generation, so a stale handle can never cancel a recycled event.
func (h Event) Cancel() {
	ev := h.ev
	if ev == nil || ev.seq != h.seq {
		return
	}
	ev.eng.remove(ev)
}

// Scheduled reports whether the event is still pending: false for the zero
// handle and once the event has fired or been cancelled.
func (h Event) Scheduled() bool {
	return h.ev != nil && h.ev.seq == h.seq
}

// event is the engine-owned state behind an Event handle. Fired and
// cancelled events are recycled through the engine's free list; seq is
// bumped to zero on recycle so outstanding handles go inert.
type event struct {
	eng        *Engine
	at         time.Duration
	seq        uint64
	fn         func()
	next, prev *event // intrusive bucket list links
	index      int32  // overflow-heap position while loc == locOverflow
	loc        int8   // wheel level, locOverflow, or locFree
	bucket     uint8  // bucket index while on a wheel level
}

// bucketList is one wheel slot: a doubly-linked list kept sorted by
// (at, seq) so the head is always the slot's minimum. Inserts walk from
// the tail, which is O(1) for the dominant monotone patterns (rising seq
// at equal or rising times). When an insert would walk too far the list
// goes dirty — unsorted until a lazy sort at drain or firing time.
type bucketList struct {
	head, tail *event
	dirty      bool
}

// wheelLevel is one ring of buckets plus an occupancy bitmap for O(1)
// next-nonempty-bucket scans.
type wheelLevel struct {
	occ     [wheelBuckets / 64]uint64
	buckets [wheelBuckets]bucketList
}

// next returns the first occupied bucket index >= from, scanning the
// occupancy bitmap.
func (l *wheelLevel) next(from uint) (uint, bool) {
	w := from >> 6
	word := l.occ[w] &^ (1<<(from&63) - 1)
	for {
		if word != 0 {
			return w<<6 | uint(bits.TrailingZeros64(word)), true
		}
		w++
		if w == wheelBuckets>>6 {
			return 0, false
		}
		word = l.occ[w]
	}
}

// Engine is a virtual-time event loop. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now   time.Duration
	seq   uint64
	fired uint64

	// pending counts live events across the wheel and the overflow heap.
	pending int

	// Timing wheel. cursor is the wheel's current tick (now >> tickShift,
	// advanced lazily toward the next pending event); the invariant is
	// that no pending wheel event has a tick below the cursor's bucket at
	// its level, so bitmap scans start at the cursor position.
	tickShift uint
	cursor    uint64
	wheelLive int
	levels    [wheelLevels]wheelLevel

	// delays is the current window's histogram of schedule delays by bit
	// length (bits.Len64 of at - now); windowed counts how many schedules
	// it holds. Both are virtual-time quantities, so the tick they derive
	// is deterministic.
	delays   [64]uint16
	windowed int

	overflow []*event // far-future 4-ary min-heap ordered by (at, seq)
	free     []*event // recycled event structs
	scratch  []*event // reused by retick to stage relocations
	sortbuf  []*event // reused by sortBucket to stage dirty buckets
}

// NewEngine returns an empty engine positioned at virtual time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Fired returns the number of events executed so far. Useful for tests and
// for guarding against runaway simulations.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of live events still scheduled. Cancelled
// events are removed immediately and never counted.
func (e *Engine) Pending() int { return e.pending }

// TickResolution returns the wheel's current tick as a duration. It is
// adaptive: re-derived from the median schedule delay of every tickWindow
// schedules. Exposed for tests and benchmark reports.
func (e *Engine) TickResolution() time.Duration { return time.Duration(1) << e.tickShift }

// Schedule registers fn to run at absolute virtual time at. Scheduling in
// the past is an error surfaced as a panic because it always indicates a
// simulation bug, never a recoverable condition.
func (e *Engine) Schedule(at time.Duration, fn func()) Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{eng: e}
	}
	e.seq++
	ev.at, ev.seq, ev.fn = at, e.seq, fn
	e.pending++
	e.place(ev)
	e.delays[bits.Len64(uint64(at-e.now))]++
	if e.windowed++; e.windowed == tickWindow {
		e.adaptTick()
	}
	return Event{ev: ev, seq: ev.seq, at: at}
}

// After registers fn to run d from the current virtual time. Negative d is
// treated as zero.
func (e *Engine) After(d time.Duration, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return e.Schedule(e.now+d, fn)
}

// Step fires the next event, if any, and reports whether one fired.
func (e *Engine) Step() bool {
	ev := e.findMin()
	if ev == nil {
		return false
	}
	e.fire(ev)
	return true
}

// Run fires events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with timestamps <= t, then advances the clock to t.
// Events scheduled during the run are honoured if they fall within the
// horizon.
func (e *Engine) RunUntil(t time.Duration) {
	for {
		ev := e.findMin()
		if ev == nil || ev.at > t {
			break
		}
		e.fire(ev)
	}
	if t > e.now {
		e.now = t
	}
}

// RunFor is RunUntil relative to the current time.
func (e *Engine) RunFor(d time.Duration) {
	e.RunUntil(e.now + d)
}

// less orders events by (time, schedule order), the contract that makes
// simulations reproducible.
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// fire unlinks ev (the global minimum, on wheel level 0), advances the
// clock, recycles the struct, and runs the callback.
func (e *Engine) fire(ev *event) {
	e.wheelUnlink(ev)
	e.pending--
	e.now = ev.at
	if c := uint64(ev.at) >> e.tickShift; c > e.cursor {
		e.cursor = c
	}
	fn := ev.fn
	e.recycle(ev)
	e.fired++
	fn()
}

// place routes ev to its wheel level (or the overflow heap) relative to
// the current cursor.
//
// Level selection is by the highest differing bit between the event's tick
// and the cursor: ticks sharing all but the low 8 bits land in level 0,
// and so on. Events whose tick is below the cursor (the cursor runs ahead
// of the clock after an idle jump) clamp into the cursor's own level-0
// bucket; the bucket's (at, seq) sort keeps them firing first.
func (e *Engine) place(ev *event) {
	t := uint64(ev.at) >> e.tickShift
	c := e.cursor
	if t < c {
		t = c
	}
	diff := t ^ c
	if diff>>wheelSpan != 0 {
		e.overflowPush(ev)
		return
	}
	lvl := 0
	if diff != 0 {
		lvl = (bits.Len64(diff) - 1) / wheelBits
	}
	idx := uint(t>>(uint(lvl)*wheelBits)) & wheelMask
	e.wheelInsert(lvl, idx, ev)
}

// wheelInsert links ev into the bucket's sorted list, walking from the
// tail (append is O(1) for the monotone common case). A walk past
// insertWalkCap gives up: the event is appended out of order and the
// bucket marked dirty for a lazy sort, so a bucket absorbing events from
// mixed horizons costs one O(b log b) sort instead of O(b) per insert.
func (e *Engine) wheelInsert(lvl int, idx uint, ev *event) {
	b := &e.levels[lvl].buckets[idx]
	if b.dirty {
		ev.prev, ev.next = b.tail, nil
		b.tail.next = ev
		b.tail = ev
		e.levels[lvl].occ[idx>>6] |= 1 << (idx & 63)
		ev.loc, ev.bucket = int8(lvl), uint8(idx)
		e.wheelLive++
		return
	}
	walked := 0
	cur := b.tail
	for cur != nil && less(ev, cur) {
		if walked == insertWalkCap {
			// Give up walking: append at the tail and sort lazily.
			ev.prev, ev.next = b.tail, nil
			b.tail.next = ev
			b.tail = ev
			b.dirty = true
			e.levels[lvl].occ[idx>>6] |= 1 << (idx & 63)
			ev.loc, ev.bucket = int8(lvl), uint8(idx)
			e.wheelLive++
			return
		}
		cur = cur.prev
		walked++
	}
	if cur == nil {
		ev.next = b.head
		ev.prev = nil
		if b.head != nil {
			b.head.prev = ev
		} else {
			b.tail = ev
		}
		b.head = ev
	} else {
		ev.next = cur.next
		ev.prev = cur
		if cur.next != nil {
			cur.next.prev = ev
		} else {
			b.tail = ev
		}
		cur.next = ev
	}
	e.levels[lvl].occ[idx>>6] |= 1 << (idx & 63)
	ev.loc, ev.bucket = int8(lvl), uint8(idx)
	e.wheelLive++
}

// wheelUnlink removes ev from its bucket list, clearing the occupancy bit
// when the bucket empties.
func (e *Engine) wheelUnlink(ev *event) {
	lvl, idx := int(ev.loc), uint(ev.bucket)
	b := &e.levels[lvl].buckets[idx]
	if ev.prev != nil {
		ev.prev.next = ev.next
	} else {
		b.head = ev.next
	}
	if ev.next != nil {
		ev.next.prev = ev.prev
	} else {
		b.tail = ev.prev
	}
	ev.next, ev.prev = nil, nil
	if b.head == nil {
		e.levels[lvl].occ[idx>>6] &^= 1 << (idx & 63)
		b.dirty = false
	}
	e.wheelLive--
}

// cmpEvent adapts less to slices.SortFunc.
func cmpEvent(a, b *event) int {
	if less(a, b) {
		return -1
	}
	return 1
}

// sortBucket restores a dirty bucket's (at, seq) order by staging its
// list through the reusable sort buffer.
func (e *Engine) sortBucket(b *bucketList) {
	buf := e.sortbuf[:0]
	for ev := b.head; ev != nil; ev = ev.next {
		buf = append(buf, ev)
	}
	slices.SortFunc(buf, cmpEvent)
	var prev *event
	for _, ev := range buf {
		ev.prev = prev
		if prev != nil {
			prev.next = ev
		} else {
			b.head = ev
		}
		prev = ev
	}
	prev.next = nil
	b.tail = prev
	b.dirty = false
	e.sortbuf = buf[:0]
}

// findMin returns the earliest pending event without removing it, lazily
// cascading higher wheel levels down and pulling the overflow heap into
// the wheel as the cursor approaches. Returns nil when nothing is pending.
// The returned event is always the head of the first occupied level-0
// bucket at or after the cursor, which the placement and sort invariants
// make the global (at, seq) minimum.
func (e *Engine) findMin() *event {
	for {
		if e.wheelLive > 0 {
			c := e.cursor
			if idx, ok := e.levels[0].next(uint(c & wheelMask)); ok {
				b := &e.levels[0].buckets[idx]
				if b.dirty {
					e.sortBucket(b)
				}
				return b.head
			}
			cascaded := false
			for lvl := 1; lvl < wheelLevels; lvl++ {
				shift := uint(lvl) * wheelBits
				idx, ok := e.levels[lvl].next(uint(c>>shift) & wheelMask)
				if !ok {
					continue
				}
				// Advance the cursor to the start of that bucket's range
				// (levels below it are empty, so nothing is skipped) and
				// redistribute its events one level down.
				base := c &^ (uint64(1)<<(shift+wheelBits) - 1)
				if nc := base | uint64(idx)<<shift; nc > e.cursor {
					e.cursor = nc
				}
				e.drain(lvl, idx)
				cascaded = true
				break
			}
			if cascaded {
				continue
			}
			panic("sim: wheel occupancy out of sync with wheelLive")
		}
		if len(e.overflow) == 0 {
			return nil
		}
		// The wheel is empty: jump the cursor to the overflow minimum and
		// pull every heap event inside the wheel's new span.
		if minT := uint64(e.overflow[0].at) >> e.tickShift; minT > e.cursor {
			e.cursor = minT
		}
		for len(e.overflow) > 0 {
			t := uint64(e.overflow[0].at) >> e.tickShift
			if (t^e.cursor)>>wheelSpan != 0 {
				break
			}
			e.place(e.overflowPop())
		}
	}
}

// drain redistributes every event of the given bucket one level down,
// relative to the (just advanced) cursor. Dirty buckets are sorted first
// so the redistribution streams in ascending (at, seq) order and every
// target insert is a tail append.
func (e *Engine) drain(lvl int, idx uint) {
	b := &e.levels[lvl].buckets[idx]
	if b.dirty {
		e.sortBucket(b)
	}
	ev := b.head
	b.head, b.tail = nil, nil
	e.levels[lvl].occ[idx>>6] &^= 1 << (idx & 63)
	for ev != nil {
		next := ev.next
		ev.next, ev.prev = nil, nil
		//swlint:allow counterflow one decrement per distinct drained event; place() immediately re-increments when it re-inserts into the wheel
		e.wheelLive--
		e.place(ev)
		ev = next
	}
}

// remove deletes a still-pending ev from the wheel or overflow heap and
// recycles it (the Cancel path).
func (e *Engine) remove(ev *event) {
	if ev.loc == locOverflow {
		e.overflowRemove(ev)
	} else {
		e.wheelUnlink(ev)
	}
	e.pending--
	e.recycle(ev)
}

// recycle invalidates outstanding handles to ev and returns it to the free
// list.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.seq = 0
	ev.index = -1
	ev.loc = locFree
	e.free = append(e.free, ev)
}

// adaptTick closes a delay window: the tick becomes the median delay's
// bit length less tickMedianBits, and the wheel is rebuilt when that
// differs from the current tick by tickHysteresis or more.
func (e *Engine) adaptTick() {
	var shift uint
	seen := 0
	for l, n := range e.delays {
		if seen += int(n); seen >= tickWindow/2 {
			if l > tickMedianBits {
				shift = uint(l - tickMedianBits)
			}
			break
		}
	}
	e.delays = [64]uint16{}
	e.windowed = 0
	if shift+tickHysteresis <= e.tickShift || shift >= e.tickShift+tickHysteresis {
		e.retick(shift)
	}
}

// retick rebuilds the wheel at a new resolution, relocating every pending
// event. Handles stay valid: event structs are relinked, never reallocated.
// It runs at most once per tickWindow schedules; the cost is one pass over
// the pending set.
func (e *Engine) retick(newShift uint) {
	evs := e.scratch[:0]
	for lvl := range e.levels {
		l := &e.levels[lvl]
		for w := range l.occ {
			word := l.occ[w]
			l.occ[w] = 0
			for word != 0 {
				idx := w<<6 | bits.TrailingZeros64(word)
				word &= word - 1
				for ev := l.buckets[idx].head; ev != nil; {
					next := ev.next
					ev.next, ev.prev = nil, nil
					evs = append(evs, ev)
					ev = next
				}
				l.buckets[idx] = bucketList{}
			}
		}
	}
	evs = append(evs, e.overflow...)
	e.overflow = e.overflow[:0]
	e.wheelLive = 0
	e.tickShift = newShift
	e.cursor = uint64(e.now) >> newShift
	// Replace in ascending order so every placement is a tail append and
	// the rebuilt buckets come out clean.
	slices.SortFunc(evs, cmpEvent)
	for _, ev := range evs {
		e.place(ev)
	}
	e.scratch = evs[:0]
}

// Overflow heap: the PR-1 4-ary min-heap, now demoted to catching events
// beyond the wheel's span.

// overflowPush inserts ev into the heap.
func (e *Engine) overflowPush(ev *event) {
	ev.loc = locOverflow
	ev.index = int32(len(e.overflow))
	e.overflow = append(e.overflow, ev)
	e.overflowUp(int(ev.index))
}

// overflowPop removes and returns the earliest heap event. The heap must
// be non-empty.
func (e *Engine) overflowPop() *event {
	ev := e.overflow[0]
	n := len(e.overflow) - 1
	last := e.overflow[n]
	e.overflow[n] = nil
	e.overflow = e.overflow[:n]
	if n > 0 {
		e.overflow[0] = last
		last.index = 0
		e.overflowDown(0)
	}
	return ev
}

// overflowRemove deletes ev from an arbitrary heap position.
func (e *Engine) overflowRemove(ev *event) {
	i := int(ev.index)
	n := len(e.overflow) - 1
	last := e.overflow[n]
	e.overflow[n] = nil
	e.overflow = e.overflow[:n]
	if i != n {
		e.overflow[i] = last
		last.index = int32(i)
		e.overflowDown(i)
		if int(last.index) == i {
			e.overflowUp(i)
		}
	}
}

// overflowUp restores heap order above position i.
func (e *Engine) overflowUp(i int) {
	ev := e.overflow[i]
	for i > 0 {
		p := (i - 1) / 4
		if !less(ev, e.overflow[p]) {
			break
		}
		e.overflow[i] = e.overflow[p]
		e.overflow[i].index = int32(i)
		i = p
	}
	e.overflow[i] = ev
	ev.index = int32(i)
}

// overflowDown restores heap order below position i.
func (e *Engine) overflowDown(i int) {
	ev := e.overflow[i]
	n := len(e.overflow)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for k := c + 1; k < end; k++ {
			if less(e.overflow[k], e.overflow[m]) {
				m = k
			}
		}
		if !less(e.overflow[m], ev) {
			break
		}
		e.overflow[i] = e.overflow[m]
		e.overflow[i].index = int32(i)
		i = m
	}
	e.overflow[i] = ev
	ev.index = int32(i)
}
