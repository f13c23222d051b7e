package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/pprof"
	"strings"
)

// The host-cost ledger attributes every CPU-profile sample and every
// sampled allocation to one layer: the innermost frame on its stack that
// belongs to a switchflow/internal/<module> package names the module (the
// last path element, so internal/sim/shard is "shard"). Device, executor,
// threadpool and sim run only as engine callbacks, so attributing stacks
// is the only way to separate them without instrumenting the program.
// Samples with no such frame go to "gc" when a background GC worker owns
// them and to "other" otherwise (the benchmark itself, the Go scheduler,
// profiling).
const modulePrefix = "switchflow/internal/"

// ledgerLayers are the layers BENCHMARK.json names, in print order. The
// printed ledger breaks every module out; in the JSON result a module
// not listed here (graph, models, vnode, ...) counts towards "other".
var ledgerLayers = []string{
	"sim", "shard", "device", "executor", "threadpool", "cost", "core",
	"workload", "cluster", "traffic", "obs", "control", "baseline", "gc", "other",
}

// foldLayers sums a per-module breakdown into ledgerLayers.
func foldLayers(byModule map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(ledgerLayers))
	for _, l := range ledgerLayers {
		out[l] = 0
	}
	for _, mod := range sortedKeys(byModule) {
		if _, ok := out[mod]; ok {
			out[mod] += byModule[mod]
		} else {
			out["other"] += byModule[mod]
		}
	}
	return out
}

// layerOf maps a stack, innermost function first, to its module, "gc" or
// "other".
func layerOf(funcs []string) string {
	gc := false
	for _, fn := range funcs {
		if mod, ok := moduleOf(fn); ok {
			return mod
		}
		switch fn {
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge":
			gc = true
		}
	}
	if gc {
		return "gc"
	}
	return "other"
}

// moduleOf returns the internal module a fully qualified function name
// belongs to.
func moduleOf(fn string) (string, bool) {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiations may name packages in brackets
	}
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return "", false
	}
	slash := strings.LastIndexByte(rest, '/')
	dot := strings.IndexByte(rest[slash+1:], '.')
	if dot < 0 {
		return "", false
	}
	return rest[slash+1 : slash+1+dot], true
}

// cpuByLayer decodes a pprof CPU profile and sums its CPU nanoseconds
// (the last sample value) by layer.
func cpuByLayer(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make(map[string]float64)
	for _, s := range p.samples {
		var funcs []string
		for _, loc := range s.locs {
			for _, fid := range p.locLines[loc] {
				idx, ok := p.funcName[fid]
				if !ok || idx < 0 || idx >= int64(len(p.strings)) {
					return nil, errors.New("cpu profile: function name outside the string table")
				}
				funcs = append(funcs, p.strings[idx])
			}
		}
		if len(s.values) > 0 {
			out[layerOf(funcs)] += float64(s.values[len(s.values)-1])
		}
	}
	return out, nil
}

// allocSnapshot is the cumulative allocation profile keyed by stack.
type allocSnapshot map[string]allocRecord

type allocRecord struct {
	stack          []uintptr
	objects, bytes int64
}

// snapshotAllocs reads the runtime's allocation profile. Records reflect
// the state at the last completed GC, so callers run a GC first.
func snapshotAllocs() allocSnapshot {
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	snap := make(allocSnapshot, len(recs))
	for _, r := range recs {
		stack := r.Stack()
		key := fmt.Sprint(stack)
		cur := snap[key]
		cur.stack = stack
		cur.objects += r.AllocObjects
		cur.bytes += r.AllocBytes
		snap[key] = cur
	}
	return snap
}

// allocsByLayer attributes the allocations made between two snapshots,
// scaled up from the sampled records the way pprof scales them.
func allocsByLayer(before, after allocSnapshot) map[string]float64 {
	rate := float64(runtime.MemProfileRate)
	out := make(map[string]float64)
	for _, key := range sortedKeys(after) {
		a, b := after[key], before[key]
		objs, size := a.objects-b.objects, a.bytes-b.bytes
		if objs <= 0 {
			continue
		}
		scale := 1.0
		if rate > 1 {
			avg := float64(size) / float64(objs)
			scale = 1 / (1 - math.Exp(-avg/rate))
		}
		var funcs []string
		frames := runtime.CallersFrames(a.stack)
		for {
			f, more := frames.Next()
			funcs = append(funcs, f.Function)
			if !more {
				break
			}
		}
		out[layerOf(funcs)] += float64(objs) * scale
	}
	return out
}

// cpuProfile runs fn under the CPU profiler and returns the profile.
func cpuProfile(fn func()) ([]byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	fn()
	pprof.StopCPUProfile()
	return buf.Bytes(), nil
}

// decodedProfile holds the parts of a pprof profile.proto the ledger
// needs: samples, each location's inline chain of function ids (innermost
// first, as pprof stores them), function names and the string table.
type decodedProfile struct {
	samples  []profSample
	locLines map[uint64][]uint64
	funcName map[uint64]int64
	strings  []string
}

type profSample struct {
	locs   []uint64
	values []int64
}

// decodeProfile parses the protobuf encoding of a pprof Profile message.
func decodeProfile(b []byte) (*decodedProfile, error) {
	p := &decodedProfile{locLines: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := walkFields(b, func(field int, v uint64, data []byte) error {
		switch field {
		case 2: // sample
			var s profSample
			err := walkFields(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					return appendPacked(&s.locs, v, d)
				case 2:
					var vals []uint64
					if err := appendPacked(&vals, v, d); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var funcs []uint64
			err := walkFields(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(d, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							funcs = append(funcs, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locLines[id] = funcs
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walkFields(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// walkFields calls fn for every field of a protobuf message: v carries a
// varint or fixed-width value, data a length-delimited payload.
func walkFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad protobuf key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errors.New("bad protobuf varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short protobuf fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad protobuf length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short protobuf fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field that may arrive packed
// (one length-delimited payload) or as a single value.
func appendPacked(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
