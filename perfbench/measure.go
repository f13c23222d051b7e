package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// stopwatch returns the host time elapsed since its creation.
func stopwatch() func() time.Duration {
	//swlint:allow simclock the benchmark measures host time by definition
	start := time.Now()
	return func() time.Duration {
		//swlint:allow simclock the benchmark measures host time by definition
		return time.Since(start)
	}
}

// stepTimer records, during one repetition, the host latency of every
// client call a workload makes into the system, and the wall and CPU time
// of the run. A run is cut into spans, consecutive slices that together
// cover it; between spans the timer may hand the host to the reference
// loop (see calibrator), and that time is left out of the run's.
type stepTimer struct {
	steps     []time.Duration
	wall, cpu time.Duration
	cal       *calibrator // nil: no reference slices (traced runs)
}

// time runs one client call as its own span.
func (t *stepTimer) time(call func()) {
	t.span(func() { t.step(call) })
}

// step times one client call.
func (t *stepTimer) step(call func()) {
	elapsed := stopwatch()
	call()
	t.steps = append(t.steps, elapsed())
}

// span runs one slice of the run.
func (t *stepTimer) span(slice func()) {
	cpu0, elapsed := cpuTime(), stopwatch()
	slice()
	wall := elapsed()
	t.wall += wall
	t.cpu += cpuTime() - cpu0
	if t.cal != nil {
		t.cal.after(wall)
	}
}

// A shared host's speed drifts by tens of percent over minutes with the
// load of other tenants, and the CPU time of the same work inflates with
// it, so raw host times from two runs minutes apart differ by more than
// any regression worth catching. Each repetition therefore also times a
// fixed reference loop, written here and independent of the simulator,
// in slices spread through the run, and reports its host times scaled to
// the speed at which one pass of the loop takes referencePass. A change
// in the host's speed moves both the run and the loop, and cancels. A
// change to the simulator moves the scaled times as much as the raw ones,
// since the loop runs none of its code and only between client calls,
// when the simulator is idle.
const (
	// referencePass is the nominal time of one pass of referenceLoop on
	// each of NumCPU goroutines: roughly what it takes on an idle 2-vCPU
	// x86-64 VM, so scaled times read close to raw ones there.
	referencePass = 250 * time.Microsecond
	// calShare is the share of the run's time given to reference slices,
	// taken after a span once calEvery of run time has gone by since the
	// last slice (spans are not split, so a slice may follow a long span).
	calShare = 0.1
	calEvery = 250 * time.Millisecond
	// calFirst is the slice a repetition starts with.
	calFirst = 50 * time.Millisecond
)

// calibrator times the reference loop in slices and reports the host's
// slowdown against referencePass.
type calibrator struct {
	due    time.Duration // run time since the last slice
	spent  time.Duration // host time of all slices, summed over goroutines
	passes int
	tables [][]uint64
	sinks  []uint64
}

func newCalibrator() *calibrator {
	tables := referenceTables()
	return &calibrator{tables: tables, sinks: make([]uint64, len(tables))}
}

// referenceTables are the reference loop's tables, one per goroutine,
// mapped outside the Go heap so they do not count in the heap metrics.
var referenceTables = sync.OnceValue(func() [][]uint64 {
	const words = 1 << 17
	var tables [][]uint64
	for i := 0; i < runtime.NumCPU(); i++ {
		b, err := syscall.Mmap(-1, 0, 8*words, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			panic(fmt.Sprintf("perfbench: map reference table: %v", err))
		}
		tables = append(tables, unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), words))
	}
	return tables
})

// after accounts for a span of the run and takes a slice when one is due.
func (c *calibrator) after(span time.Duration) {
	c.due += span
	if c.due >= calEvery {
		c.slice(time.Duration(float64(c.due) * calShare))
		c.due = 0
	}
}

// slice runs the reference loop on NumCPU goroutines for about d, with no
// allocation, so it neither triggers nor waits on the collector.
func (c *calibrator) slice(d time.Duration) {
	var wg sync.WaitGroup
	passes := make([]int, len(c.tables))
	elapsed := stopwatch()
	for g := range c.tables {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for passes[g] == 0 || elapsed() < d {
				c.sinks[g] += referenceLoop(c.tables[g], uint64(g+1))
				passes[g]++
			}
		}(g)
	}
	wg.Wait()
	c.spent += elapsed() * time.Duration(len(c.tables))
	for _, p := range passes {
		c.passes += p
	}
}

// slowdown is the host time of one reference pass measured so far,
// against referencePass: 1 on the nominal host, 1.3 on one 30% slower.
func (c *calibrator) slowdown() float64 {
	if c.passes == 0 {
		return 1
	}
	return float64(c.spent) / float64(c.passes) / float64(referencePass)
}

// referenceLoop is one pass of the reference work: xorshift-driven
// read-modify-writes scattered over a 1 MiB table, a mix of integer
// work, unpredictable loads and cache traffic like the simulator's.
func referenceLoop(table []uint64, seed uint64) uint64 {
	x := seed*0x9e3779b97f4a7c15 | 1
	mask := uint64(len(table) - 1)
	for i := 0; i < 100_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		table[x&mask] += x
	}
	return x
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// readUint64 reads one cumulative runtime/metrics counter.
func readUint64(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

const (
	metricAllocs   = "/gc/heap/allocs:objects"
	metricLiveHeap = "/gc/heap/live:bytes"
	metricGCCycles = "/gc/cycles/total:gc-cycles"
)

// heapSampler records the live heap left by every GC cycle while it is
// armed. A finalizer on a throwaway object runs once per cycle that
// collects it; each run reads the live-heap metric (the heap marked by
// that cycle) and re-arms with a fresh object.
type heapSampler struct {
	mu      sync.Mutex
	gen     int // chain generation; a finalizer of an older chain lapses
	armed   bool
	samples []float64
}

func (h *heapSampler) start() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.gen++
	h.armed, h.samples = true, nil
	h.arm(h.gen)
}

// arm plants the next sentinel of chain gen; the caller holds h.mu.
func (h *heapSampler) arm(gen int) {
	obj := new([64]byte) // large enough to bypass the tiny allocator, whose blocks finalize late
	runtime.SetFinalizer(obj, func(*[64]byte) {
		h.mu.Lock()
		defer h.mu.Unlock()
		if !h.armed || gen != h.gen {
			return
		}
		h.samples = append(h.samples, float64(readUint64(metricLiveHeap)))
		h.arm(gen)
	})
}

// stop disarms the sampler and returns the live-heap samples in bytes.
func (h *heapSampler) stop() []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.armed = false
	if len(h.samples) == 0 {
		h.samples = append(h.samples, float64(readUint64(metricLiveHeap)))
	}
	return h.samples
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the "inclusive" method).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// sortedKeys returns m's keys in order, so sums over m do not depend on
// map iteration order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// hostInfo is the host block printed with every result.
type hostInfo struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

func host(root string) hostInfo {
	return hostInfo{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     commit(root),
	}
}

// commit names the code under test: the commit HEAD names when root is
// a git work tree, otherwise "src:" and a SHA-256 over the module's Go
// sources and go.mod, so an exported checkout is still identified
// exactly. It reads .git directly rather than running git, which would
// search the parent directories.
func commit(root string) string {
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		name, isRef := strings.CutPrefix(ref, "ref: ")
		if !isRef {
			return ref
		}
		if id, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
			return strings.TrimSpace(string(id))
		}
		if packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
			for _, line := range strings.Split(string(packed), "\n") {
				if id, ok := strings.CutSuffix(line, " "+name); ok {
					return id
				}
			}
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") && rel != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src:" + hex.EncodeToString(h.Sum(nil))[:16]
}
