package hruntime

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/sim"
)

// fig9OverOracles builds Figure 9 on every process over LiveWorld's HΩ and
// HΣ oracles, which stabilize after 30ms excluding the processes that
// faults leave down.
func fig9OverOracles(faults []fault) func(*Cluster) ([]sim.Process, []decider) {
	return func(c *Cluster) ([]sim.Process, []decider) {
		world := NewLiveWorld(c, 30*time.Millisecond)
		for _, f := range faults {
			world.DeclareCrashing(f.p)
		}
		procs, insts := make([]sim.Process, c.N()), make([]decider, c.N())
		for p := range procs {
			cons := core.NewFig9(NewLiveHOmega(world), NewLiveHSigma(world, p), proposal(p))
			procs[p], insts[p] = cons, cons
		}
		return procs, insts
	}
}

func liveFig9(t *testing.T, ids ident.Assignment, seed int64, faults []fault) int {
	t.Helper()
	outcomes, _ := liveConsensus(t, ids, seed, faults, fig9OverOracles(faults))
	return deciders(outcomes)
}

func TestLiveFig9FailureFree(t *testing.T) {
	if got := liveFig9(t, ident.Balanced(4, 2), 11, nil); got != 4 {
		t.Fatalf("%d deciders, want 4", got)
	}
}

func TestLiveFig9MinorityCorrect(t *testing.T) {
	// 3 of 5 crash — beyond any majority; Fig. 9 still decides live.
	faults := []fault{
		{p: 0, after: 5 * time.Millisecond},
		{p: 2, after: 10 * time.Millisecond},
		{p: 4, after: 15 * time.Millisecond},
	}
	if got := liveFig9(t, ident.Balanced(5, 2), 12, faults); got < 2 {
		t.Fatalf("%d deciders, want both correct processes", got)
	}
}

func TestLiveFig9Anonymous(t *testing.T) {
	liveFig9(t, ident.AnonymousN(4), 13, nil)
}

func TestLiveFig9Homonymous(t *testing.T) {
	liveFig9(t, ident.Assignment{"x", "x", "y", "y", "z"}, 14, []fault{{p: 1, after: 8 * time.Millisecond}})
}
