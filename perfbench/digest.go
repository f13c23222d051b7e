package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"strconv"
)

// digest hashes a workload's simulated results, one line per record.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(fields ...any) { fmt.Fprintln(d.h, fields...) }

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// digests.json pins the expected digest of every workload, horizon and
// input variant. A change meant only to make the simulator faster must
// leave all of them unchanged; regenerate them (--write-digests) only for
// a change that is meant to alter simulated results.
//
//go:embed digests.json
var pinnedJSON []byte

var pinned = func() map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(pinnedJSON, &m); err != nil {
		panic("perfbench: digests.json: " + err.Error())
	}
	return m
}()

func digestKey(w workloadDef, o runOptions) string {
	horizon := "full"
	if o.short {
		horizon = "short"
	}
	variant := strconv.Itoa(o.variant)
	if w.seedFree {
		variant = "any"
	}
	return w.name + "/" + horizon + "/" + variant
}

func expectedDigest(w workloadDef, o runOptions) (string, bool) {
	d, ok := pinned[digestKey(w, o)]
	return d, ok
}

// regenerateDigests runs every workload, horizon and variant once and
// writes their digests to path. Any failed invariant aborts it.
func regenerateDigests(path string) error {
	m := map[string]string{}
	for _, w := range workloads {
		n := variants
		if w.seedFree {
			n = 1
		}
		for _, short := range []bool{true, false} {
			for v := 0; v < n; v++ {
				o := runOptions{variant: v, short: short}
				sys, err := w.setup(o)
				if err != nil {
					return err
				}
				sys.run(&stepTimer{})
				out := sys.check()
				if len(out.failures) > 0 {
					return fmt.Errorf("%s: %v", digestKey(w, o), out.failures)
				}
				m[digestKey(w, o)] = out.digest
				fmt.Fprintln(os.Stderr, digestKey(w, o), out.digest)
			}
		}
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
