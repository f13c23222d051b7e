package main

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/results.sha256 from the current source")

// oracleSizes are the test-sized arguments the committed digests were
// generated at; `make results-check` passes the same values as flags.
var oracleSizes = sizes{iters: 2, requests: 5, fleetWin: 5 * time.Second, clients: 1000}

const digestFile = "testdata/results.sha256"

// heavySections run at a fixed size far above the test budget (Figure 7
// alone is 42 thirty-second co-runs, ~13 s of CPU). The test leaves
// them to `make results-check`, which checks every section; -update
// still regenerates them.
var heavySections = map[string]bool{"f7": true}

// TestResultsDigests is the behaviour oracle: every swbench section's
// output at oracleSizes must hash to its committed digest. A change that
// moves a simulated result fails here; an intentional one regenerates
// the file with
//
//	go test ./cmd/swbench -run TestResultsDigests -update
//
// and says so in CHANGES.md. Sections in heavySections are checked by
// `make results-check` only.
func TestResultsDigests(t *testing.T) {
	var (
		mu  sync.Mutex
		got = make(map[string]string, len(sections))
	)
	t.Run("sections", func(t *testing.T) {
		for _, s := range sections {
			s := s
			if heavySections[s.id] && !*updateDigests {
				continue
			}
			t.Run(s.id, func(t *testing.T) {
				t.Parallel()
				var buf bytes.Buffer
				s.run(&buf, oracleSizes)
				mu.Lock()
				got[s.id] = digestLine(s.id, buf.Bytes())
				mu.Unlock()
			})
		}
	})
	if *updateDigests {
		var b strings.Builder
		b.WriteString(digestHeader(oracleSizes) + "\n")
		for _, s := range sections {
			b.WriteString(got[s.id])
		}
		if err := os.WriteFile(digestFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatalf("read %s: %v", digestFile, err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if lines[0] != digestHeader(oracleSizes)+"\n" {
		t.Fatalf("%s header %q does not match oracleSizes %q", digestFile, lines[0], digestHeader(oracleSizes))
	}
	want := make(map[string]string, len(lines))
	for _, line := range lines[1:] {
		if id := strings.TrimSpace(strings.TrimLeft(line, "0123456789abcdef")); id != "" {
			want[id] = line
		}
	}
	for _, s := range sections {
		if _, ran := got[s.id]; !ran {
			continue
		}
		if got[s.id] != want[s.id] {
			t.Errorf("section %s: digest %q, committed %q", s.id, got[s.id], want[s.id])
		}
	}
}
