package main

import (
	"strings"
	"testing"
)

func TestSharedLinesDropsOnlyTheAllowedLines(t *testing.T) {
	live := `algo=heartbeat n=2000 ℓ=20 beaters=100 seed=1
heartbeat churn verified ✔ (fault bookkeeping vs schedule truth, heard-sum vs delivered, delivery liveness)
  eventually up:    2000/2000 (correct in the strict sense: 1900)
  events processed: 800595 (stop: horizon)
  deliveries/drops: 793801/6199
  queue high-water: 400 entries
`
	replayed := `algo=heartbeat n=2000 ℓ=20 beaters=100 seed=1
heartbeat churn verified ✔ (recoveries vs schedule truth, delivery liveness)
  eventually up:    2000/2000 (correct in the strict sense: 1900)
  deliveries/drops: 793801/6199
`
	if a, b := sharedLines(live, true), sharedLines(replayed, false); a != b {
		t.Fatalf("shared lines differ:\n%s\n---\n%s", a, b)
	}
	// A replay-side counter line is never dropped, so a drift shows.
	if sharedLines(replayed, false) == sharedLines(strings.Replace(replayed, "793801", "793800", 1), false) {
		t.Fatal("a changed delivery count was dropped from the comparison")
	}
}
