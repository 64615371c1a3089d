package main

import (
	"errors"
	"testing"
)

func TestFailureClass(t *testing.T) {
	for msg, want := range map[string]string{
		"hds: run truncated by the MaxEvents guard after 60000 events — raise MaxEvents or shrink the scenario": "MaxEvents guard",
		"check: termination violated — eventually-up process 0 did not decide":                                  "termination",
		"hds: internal invariant: round went backwards":                                                         "invariant",
		"something new": "something new",
	} {
		if got := failureClass(msg); got != want {
			t.Errorf("failureClass(%q) = %q, want %q", msg, got, want)
		}
	}
}

func TestGuardEvents(t *testing.T) {
	for msg, want := range map[string]int64{
		"hds: run truncated by the MaxEvents guard after 60000 events — raise MaxEvents or shrink the scenario": 60000,
		"check: termination violated — eventually-up process 0 did not decide":                                  0,
	} {
		if got := guardEvents(msg); got != want {
			t.Errorf("guardEvents(%q) = %d, want %d", msg, got, want)
		}
	}
}

// TestAggregateCountsOneRepetition checks that the run counts do not grow
// with the number of repetitions, and that a repetition which does not
// reproduce the first one's outputs adds a failure and fails the checks.
func TestAggregateCountsOneRepetition(t *testing.T) {
	rep := func(events string) *repetition {
		r := newRepetition(0.01)
		r.outcome("fig8 churn: ", nil)
		r.outcome("fig8 churn: ", errors.New("hds: run truncated by the MaxEvents guard after 60000 events"))
		r.Values["wall_s"] = 1
		r.Values["events_per_s"] = 1
		r.Values["peak_rss_mb"] = 1
		r.Outputs["events"] = events
		return r
	}
	res, err := aggregate([]*repetition{rep("7"), rep("7"), rep("7")}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct || res.attempted != 2 || res.failed != 1 {
		t.Fatalf("same outputs: correct=%v attempted=%d failed=%d, want true 2 1", res.correct, res.attempted, res.failed)
	}
	res, err = aggregate([]*repetition{rep("7"), rep("8"), rep("7")}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.correct || res.attempted != 2 || res.failed != 2 {
		t.Fatalf("diverged outputs: correct=%v attempted=%d failed=%d, want false 2 2", res.correct, res.attempted, res.failed)
	}
}
