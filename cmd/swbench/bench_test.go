package main

import (
	"strings"
	"testing"
)

// TestCheckRegressionMacroAllocCeiling: a macro cell above the absolute
// allocs/event ceiling fails the gate even though the baseline carries no
// allocation figure; cells at or under it pass.
func TestCheckRegressionMacroAllocCeiling(t *testing.T) {
	base := benchReport{Schema: benchSchema, Macro: []macroResult{
		{Name: "fleet", Nodes: 2, Mode: "serial", WallSec: 1},
		{Name: "fleet", Nodes: 2, Mode: "sharded", WallSec: 1},
	}}
	cur := benchReport{Schema: benchSchema, Macro: []macroResult{
		{Name: "fleet", Nodes: 2, Mode: "serial", WallSec: 1, AllocsPerEvent: 0.2},
		{Name: "fleet", Nodes: 2, Mode: "sharded", WallSec: 1, AllocsPerEvent: macroAllocCeiling},
	}}
	if err := checkRegression(cur, base); err != nil {
		t.Fatalf("cells within the ceiling failed the gate: %v", err)
	}
	cur.Macro[1].AllocsPerEvent = 4.9
	err := checkRegression(cur, base)
	if err == nil || !strings.Contains(err.Error(), "1 benchmark regression") {
		t.Fatalf("cell at 4.9 allocs/event passed the gate (err %v)", err)
	}
}
