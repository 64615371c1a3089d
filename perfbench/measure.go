package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// setupReps is how many timed set-ups a workload process runs; the
// process reports the median, so one slow page-fault burst does not set
// it.
const setupReps = 9

// measureSetup runs setup once untimed, then setupReps timed times, and
// returns the last result and the median duration in seconds. Each timed
// set-up starts from a collected heap: it pays for its own allocations,
// not for a GC cycle that an earlier set-up's garbage happens to trigger
// inside it.
func measureSetup[T any](setup func() (T, error)) (T, float64, error) {
	out, err := setup()
	if err != nil {
		return out, 0, fmt.Errorf("set-up: %w", err)
	}
	times := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return out, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		out = v
	}
	return out, median(times), nil
}

// memDelta brackets a call with runtime.ReadMemStats and reports the bytes
// it allocated and the GC cycles that ran meanwhile. ReadMemStats stops
// the world, so it only runs in the layer-timed run.
type memDelta struct {
	before runtime.MemStats
}

func (m *memDelta) start() { runtime.ReadMemStats(&m.before) }

func (m *memDelta) stop() (allocBytes uint64, gcCycles uint32) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - m.before.TotalAlloc, after.NumGC - m.before.NumGC
}

// repetition is what one workload process measures and checks: one
// repetition of the workload. The launcher aggregates repetitions.
type repetition struct {
	// SetupS is the median set-up time of this process.
	SetupS float64 `json:"setup_s"`
	// Values holds this repetition's figures by metric name: end-to-end
	// figures, and per-layer ones in the layer-timed run.
	Values map[string]float64 `json:"values"`
	// Outputs holds exact program outputs (counts, digests) that every
	// repetition of one invocation must reproduce.
	Outputs map[string]string `json:"outputs"`
	// RunMS holds per-run host times in ms (consensus-sweep only).
	RunMS []float64 `json:"run_ms,omitempty"`

	Attempted  int            `json:"attempted"`
	Failed     int            `json:"failed"`
	Mismatches []string       `json:"mismatches,omitempty"`
	Classes    map[string]int `json:"classes,omitempty"`
}

func newRepetition(setupS float64) *repetition {
	return &repetition{SetupS: setupS, Values: map[string]float64{}, Outputs: map[string]string{}}
}

// outcome records one run: err is the runner's verdict (a verification
// error or a MaxEvents-guard truncation), mismatches the failed output
// checks ("" entries are passing checks and are ignored). Either fails
// the run; a mismatch also makes the invocation incorrect. Runner
// failures are reported per group (the run's scenario family) and class.
func (r *repetition) outcome(group string, err error, mismatches ...string) {
	r.Attempted++
	var bad []string
	for _, m := range mismatches {
		if m != "" {
			bad = append(bad, m)
		}
	}
	switch {
	case err != nil:
		r.Failed++
		if r.Classes == nil {
			r.Classes = map[string]int{}
		}
		r.Classes[group+failureClass(err.Error())]++
	case len(bad) > 0:
		r.Failed++
		r.Mismatches = append(r.Mismatches, bad...)
	}
}

// failureClass groups runner errors for the report: the guard
// truncation, the violated property's name when the verdict has one, or
// the text.
func failureClass(msg string) string {
	lower := strings.ToLower(msg)
	for _, c := range []string{"MaxEvents guard", "termination", "agreement", "validity", "invariant"} {
		if strings.Contains(lower, strings.ToLower(c)) {
			return c
		}
	}
	return msg
}

// expect returns "" when got equals want and a mismatch description
// otherwise.
func expect[T comparable](what string, got, want T) string {
	if got == want {
		return ""
	}
	return fmt.Sprintf("%s: got %v, want %v", what, got, want)
}

// progress reports on standard error, the side channel that never
// reaches the result line.
func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
