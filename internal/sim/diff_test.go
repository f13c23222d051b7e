package sim

import (
	"testing"
	"testing/quick"
	"time"
)

// The differential tests in this file drive the timing-wheel Engine and the
// PR-1 HeapEngine reference implementation with byte-for-byte identical
// schedule/cancel/step/run-until scripts and assert that the two produce the
// same firing sequence, the same clock, and the same counters. The heap's
// behaviour is the specification: any divergence is a wheel bug.
//
// Scripts are generated from a handrolled xorshift generator (never
// math/rand — the detrand analyzer bans it) so a failing seed reproduces
// exactly, and the same interpreter backs the quick.Check property and the
// fuzz target.

// diffRNG is a xorshift64* generator; deterministic, seedable, dependency
// free.
type diffRNG uint64

func (r *diffRNG) next() uint64 {
	x := uint64(*r)
	if x == 0 {
		x = 0x9e3779b97f4a7c15
	}
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = diffRNG(x)
	return x * 0x2545f4914f6cdd1d
}

// firing records one event execution: the clock the engine showed the
// callback and the script-assigned id of the event.
type firing struct {
	at time.Duration
	id int
}

// diffScript interprets a byte string as a schedule/cancel/step/run-until
// script over both engines and fails t on any observable divergence.
func diffScript(t *testing.T, data []byte) bool {
	t.Helper()
	wheel := NewEngine()
	heap := NewHeapEngine()
	var wheelLog, heapLog []firing
	var wheelEvs []Event
	var heapEvs []HeapEvent
	nextID := 0

	schedule := func(d time.Duration) {
		id := nextID
		nextID++
		at := wheel.Now() + d
		wheelEvs = append(wheelEvs, wheel.Schedule(at, func() {
			wheelLog = append(wheelLog, firing{wheel.Now(), id})
		}))
		heapEvs = append(heapEvs, heap.Schedule(at, func() {
			heapLog = append(heapLog, firing{heap.Now(), id})
		}))
	}

	rng := diffRNG(0xdeadbeefcafe)
	for i := 0; i < len(data); i++ {
		op := data[i] % 8
		arg := func(n int) uint64 {
			v := uint64(0)
			for ; n > 0 && i+1 < len(data); n-- {
				i++
				v = v<<8 | uint64(data[i])
			}
			return v
		}
		switch op {
		case 0, 1: // near-horizon schedule: lands in wheel level 0/1
			schedule(time.Duration(arg(1)))
		case 2: // mid-horizon schedule: exercises levels 1-2 and cascades
			schedule(time.Duration(arg(2)) << 4)
		case 3: // far-future schedule: overflow heap and retick pressure
			schedule(time.Duration(arg(3)) << 12)
		case 4: // cancel an arbitrary previously issued handle (may be stale)
			if n := len(wheelEvs); n > 0 {
				j := int(arg(2) % uint64(n))
				wheelEvs[j].Cancel()
				heapEvs[j].Cancel()
				if wheelEvs[j].Scheduled() != heapEvs[j].Scheduled() {
					t.Fatalf("op %d: Scheduled() diverges for handle %d: wheel=%v heap=%v",
						i, j, wheelEvs[j].Scheduled(), heapEvs[j].Scheduled())
				}
			}
		case 5: // single step
			if w, h := wheel.Step(), heap.Step(); w != h {
				t.Fatalf("op %d: Step() diverges: wheel=%v heap=%v", i, w, h)
			}
		case 6: // bounded advance
			d := time.Duration(arg(2))
			wheel.RunUntil(wheel.Now() + d)
			heap.RunUntil(heap.Now() + d)
		case 7: // reschedule storm burst: cancel-and-replace, the GPU-model pattern
			for k := uint64(0); k < arg(1)%16; k++ {
				if n := len(wheelEvs); n > 0 {
					j := int(rng.next() % uint64(n))
					wheelEvs[j].Cancel()
					heapEvs[j].Cancel()
				}
				schedule(time.Duration(rng.next() % 4096))
			}
		}
		if wheel.Now() != heap.Now() {
			t.Fatalf("op %d: clock diverges: wheel=%v heap=%v", i, wheel.Now(), heap.Now())
		}
		if wheel.Pending() != heap.Pending() {
			t.Fatalf("op %d: Pending() diverges: wheel=%d heap=%d", i, wheel.Pending(), heap.Pending())
		}
	}

	wheel.Run()
	heap.Run()

	if wheel.Fired() != heap.Fired() {
		t.Fatalf("Fired() diverges: wheel=%d heap=%d", wheel.Fired(), heap.Fired())
	}
	if wheel.Now() != heap.Now() {
		t.Fatalf("final clock diverges: wheel=%v heap=%v", wheel.Now(), heap.Now())
	}
	if len(wheelLog) != len(heapLog) {
		t.Fatalf("firing count diverges: wheel=%d heap=%d", len(wheelLog), len(heapLog))
	}
	for i := range wheelLog {
		if wheelLog[i] != heapLog[i] {
			t.Fatalf("firing %d diverges: wheel=%+v heap=%+v", i, wheelLog[i], heapLog[i])
		}
	}
	return true
}

// scriptFromSeed expands a seed into a pseudo-random op script long enough
// to hit cascades, overflow pulls, and reticks.
func scriptFromSeed(seed uint64, n int) []byte {
	rng := diffRNG(seed)
	data := make([]byte, n)
	for i := 0; i < n; i += 8 {
		v := rng.next()
		for j := 0; j < 8 && i+j < n; j++ {
			data[i+j] = byte(v >> (8 * j))
		}
	}
	return data
}

// TestWheelMatchesHeapProperty checks the equivalence contract over
// generated scripts. Long scripts force the wheel through every regime:
// level-0 fast path, cascading drains, overflow spills, and adaptive
// reticks.
func TestWheelMatchesHeapProperty(t *testing.T) {
	prop := func(seed uint64, size uint16) bool {
		n := 64 + int(size)%4096
		return diffScript(t, scriptFromSeed(seed, n))
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestWheelMatchesHeapDeepHorizon pins down the far-future path: a spread of
// events many wheel spans ahead must pull from the overflow heap and retick
// without reordering anything.
func TestWheelMatchesHeapDeepHorizon(t *testing.T) {
	wheel := NewEngine()
	heap := NewHeapEngine()
	var wheelLog, heapLog []firing
	rng := diffRNG(42)
	for i := 0; i < 2000; i++ {
		id := i
		// Delays span 1ns to ~18 minutes: level 0 through deep overflow.
		d := time.Duration(rng.next() % (1 << uint(10+rng.next()%31)))
		at := wheel.Now() + d
		wheel.Schedule(at, func() { wheelLog = append(wheelLog, firing{wheel.Now(), id}) })
		heap.Schedule(at, func() { heapLog = append(heapLog, firing{heap.Now(), id}) })
		if i%64 == 0 {
			wheel.Step()
			heap.Step()
		}
	}
	wheel.Run()
	heap.Run()
	if len(wheelLog) != len(heapLog) {
		t.Fatalf("firing count diverges: wheel=%d heap=%d", len(wheelLog), len(heapLog))
	}
	for i := range wheelLog {
		if wheelLog[i] != heapLog[i] {
			t.Fatalf("firing %d diverges: wheel=%+v heap=%+v", i, wheelLog[i], heapLog[i])
		}
	}
	if wheel.Fired() != heap.Fired() || wheel.Now() != heap.Now() {
		t.Fatalf("counters diverge: wheel=(%d,%v) heap=(%d,%v)",
			wheel.Fired(), wheel.Now(), heap.Fired(), heap.Now())
	}
}

// tickPhaseScript schedules two tick windows of microsecond-scale delays
// and then two of nanosecond-scale ones, stepping less often than it
// schedules, so the wheel coarsens and then refines its tick with a
// growing set of events pending across both reticks.
func tickPhaseScript() []byte {
	var data []byte
	for i := 0; i < 2*tickWindow; i++ {
		// op 2: delay = arg<<4 ns, arg in [256, 512): 4-8µs.
		data = append(data, 2, 1, byte(i*37))
		if i%4 != 3 {
			data = append(data, 5)
		}
	}
	for i := 0; i < 2*tickWindow; i++ {
		// op 0: delay = arg ns, arg in [0, 64).
		data = append(data, 0, byte(i*13%64))
		if i%4 != 3 {
			data = append(data, 5)
		}
	}
	return data
}

// TestWheelMatchesHeapAcrossTickPhases runs the tick-phase script through
// both engines.
func TestWheelMatchesHeapAcrossTickPhases(t *testing.T) {
	diffScript(t, tickPhaseScript())
}

// FuzzWheelMatchesHeap lets the fuzzer mutate raw op scripts directly, so
// it can steer into orderings the seeded generator never produces.
func FuzzWheelMatchesHeap(f *testing.F) {
	f.Add([]byte{0, 10, 5, 5, 5})
	f.Add(scriptFromSeed(1, 256))
	f.Add(scriptFromSeed(0xfeed, 1024))
	f.Add(tickPhaseScript())
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<14 {
			data = data[:1<<14]
		}
		diffScript(t, data)
	})
}
