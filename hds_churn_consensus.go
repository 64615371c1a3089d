package hds

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/fd/ohp"
	"repro/internal/fd/oracle"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ChurnFig8Experiment and ChurnFig9Experiment are the experiment names
// from before crash-stop and churn runs shared one runner. The perfbench
// benchmark, which is frozen, still spells them.
type (
	ChurnFig8Experiment = Fig8Experiment
	ChurnFig9Experiment = Fig9Experiment
)

// ChurnConsensusResult reports a verified consensus run, crash-stop or
// churn. A run that executed but failed verification still reports
// Stopped and Stats alongside the error.
type ChurnConsensusResult struct {
	// Report is the checker-verified consensus outcome (Termination
	// quantified over the correct processes in a crash-stop run, over the
	// eventually-up ones under churn).
	Report Report
	// LastChange is the final fault-pattern change (last crash or
	// recovery) — the earliest instant the run's tail is churn-free.
	LastChange Time
	// DecideAfterChurn is how long after the fault pattern settled the last
	// eventually-up process decided (0 when consensus finished before the
	// churn did): the decision latency attributable to post-churn
	// re-convergence and rejoin.
	DecideAfterChurn Time
	// EventuallyUp and Correct are |EventuallyUp| and |Correct|.
	EventuallyUp, Correct int
	// Recoveries counts executed recover events.
	Recoveries int
	// Stopped is why the run ended.
	Stopped sim.StopReason
	// Stats aggregates message costs.
	Stats Stats
}

// RunChurnFig8 executes Figure 8 under the fault schedule — the churn
// spec plus the permanent crashes; an empty spec is a crash-stop run —
// with the rejoin protocol live, cross-checks the engine's incremental
// fault bookkeeping against the schedule-derived ground truth, verifies
// decision stability across every outage, and checks the consensus
// properties.
func RunChurnFig8(e Fig8Experiment) (ChurnConsensusResult, error) {
	n := e.IDs.N()
	if err := validateExperiment(e.IDs, e.Crashes, e.Proposals); err != nil {
		return ChurnConsensusResult{}, err
	}
	if e.T < 0 || 2*e.T >= n {
		return ChurnConsensusResult{}, fmt.Errorf("hds: Fig8 requires 0 <= t < n/2, got t=%d n=%d", e.T, n)
	}
	if e.Horizon == 0 {
		e.Horizon = 1_000_000
	}
	schedule, truth, err := churnFaultPattern(e.IDs, e.Churn, e.Crashes, e.Horizon)
	if err != nil {
		return ChurnConsensusResult{}, err
	}
	if crashed := len(truth.CrashTimes); crashed > e.T {
		return ChurnConsensusResult{}, fmt.Errorf("hds: the fault schedule crashes %d processes, exceeding the t=%d budget (every crash spends it, recovered or not)", crashed, e.T)
	}
	proposals := e.Proposals
	if proposals == nil {
		proposals = defaultProposals(n)
	}
	stabilize := defaultStabilize(e.Stabilize, e.Churn, truth)

	rec := traceRecorder(e.Trace)
	eng := sim.New(sim.Config{IDs: e.IDs, Net: e.Net, Seed: e.Seed, KnownN: true, Recorder: rec, MaxEvents: e.MaxEvents})
	world := oracle.NewWorld(truth, stabilize)
	insts := make([]*core.Fig8, n)
	for i := 0; i < n; i++ {
		node := sim.NewNode()
		var det fd.HOmega
		switch e.Detectors {
		case MessagePassingDetectors:
			d := ohp.New()
			node.Add("ohp", d)
			det = d
		default:
			d := oracle.NewHOmega(world, e.Adversary)
			node.Add("homega", d)
			det = d
		}
		insts[i] = core.NewFig8(det, e.T, proposals[i])
		node.Add("consensus", insts[i])
		eng.AddProcess(node)
	}
	outcome := func(p sim.PID) core.Outcome { return insts[p].Decided() }
	invariant := func(p sim.PID) error { return insts[p].InvariantErr() }
	return runChurnConsensus(eng, rec, truth, schedule, e.Churn, proposals, e.Horizon, outcome, invariant)
}

// RunChurnFig9 is RunChurnFig8 for Figure 9 (or its anonymous baseline):
// oracle-driven detectors, any number of faults, HΣ quorums built over the
// eventually-up set.
func RunChurnFig9(e Fig9Experiment) (ChurnConsensusResult, error) {
	n := e.IDs.N()
	if err := validateExperiment(e.IDs, e.Crashes, e.Proposals); err != nil {
		return ChurnConsensusResult{}, err
	}
	if e.Horizon == 0 {
		e.Horizon = 1_000_000
	}
	schedule, truth, err := churnFaultPattern(e.IDs, e.Churn, e.Crashes, e.Horizon)
	if err != nil {
		return ChurnConsensusResult{}, err
	}
	if len(truth.EventuallyUp()) == 0 {
		return ChurnConsensusResult{}, fmt.Errorf("hds: no process is eventually up — nothing can decide")
	}
	proposals := e.Proposals
	if proposals == nil {
		proposals = defaultProposals(n)
	}
	stabilize := defaultStabilize(e.Stabilize, e.Churn, truth)

	rec := traceRecorder(e.Trace)
	eng := sim.New(sim.Config{IDs: e.IDs, Net: e.Net, Seed: e.Seed, Recorder: rec, MaxEvents: e.MaxEvents})
	world := oracle.NewWorld(truth, stabilize)
	insts := make([]*core.Fig9, n)
	for i := 0; i < n; i++ {
		hs := oracle.NewHSigma(world)
		node := sim.NewNode().Add("hsigma", hs)
		if e.AnonymousBaseline {
			ao := oracle.NewAOmega(world, e.Adversary)
			node.Add("aomega", ao)
			insts[i] = core.NewFig9Anonymous(ao, hs, proposals[i])
		} else {
			ho := oracle.NewHOmega(world, e.Adversary)
			node.Add("homega", ho)
			insts[i] = core.NewFig9(ho, hs, proposals[i])
		}
		node.Add("consensus", insts[i])
		eng.AddProcess(node)
	}
	outcome := func(p sim.PID) core.Outcome { return insts[p].Decided() }
	invariant := func(p sim.PID) error { return insts[p].InvariantErr() }
	return runChurnConsensus(eng, rec, truth, schedule, e.Churn, proposals, e.Horizon, outcome, invariant)
}

// defaultStabilize returns the oracle stabilization time a run uses.
// Under churn, zero means 50 past the schedule's last event; a crash-stop
// run takes the value as given.
func defaultStabilize(stabilize Time, churn ChurnSpec, truth *fd.GroundTruth) Time {
	if stabilize == 0 && churn.Fraction > 0 {
		return truth.LastChange() + 50
	}
	return stabilize
}

// runChurnConsensus is the shared tail of the consensus runners: apply
// the schedule, monitor decision stability, run until every eventually-up
// process decided (or the horizon), cross-check engine bookkeeping against
// the truth, and verify the properties with CheckConsensus.
func runChurnConsensus(eng *sim.Engine, rec *trace.Recorder, truth *fd.GroundTruth,
	schedule []ChurnEvent, churn ChurnSpec, proposals []Value, horizon Time,
	outcome func(sim.PID) core.Outcome, invariant func(sim.PID) error) (ChurnConsensusResult, error) {
	eng.ApplyChurn(schedule)
	mon := check.NewDecisionMonitor()
	eng.AfterEvent(func(_ Time, p sim.PID) {
		if p >= 0 {
			mon.Observe(p, outcome(p))
		}
	})

	eng.RunUntil(horizon, func() bool {
		for _, p := range truth.EventuallyUp() {
			if !outcome(p).Decided {
				return false
			}
		}
		return true
	})
	// A run that executed reports how it stopped and what it cost even
	// when it fails verification.
	failed := func(err error) (ChurnConsensusResult, error) {
		return ChurnConsensusResult{Stopped: eng.Stopped(), Stats: rec.Stats()}, err
	}
	if err := guardErr(eng); err != nil {
		return failed(err)
	}
	if err := checkTruthConsistency(eng, truth); err != nil {
		return failed(err)
	}
	if err := mon.Err(); err != nil {
		return failed(err)
	}

	n := len(proposals)
	outcomes := make([]core.Outcome, n)
	for p := 0; p < n; p++ {
		outcomes[p] = outcome(sim.PID(p))
		if err := invariant(sim.PID(p)); err != nil {
			return failed(fmt.Errorf("hds: internal invariant: %w", err))
		}
	}
	res, err := CheckConsensus(churn, truth, proposals, outcomes)
	if err != nil {
		return failed(err)
	}
	res.Recoveries = eng.Recoveries()
	res.Stopped = eng.Stopped()
	res.Stats = rec.Stats()
	return res, nil
}

// CheckConsensus verifies final consensus outcomes against the ground
// truth and fills in the result's verdict fields (report, fault-pattern
// summary, decision latency after the last fault). Termination is stated
// over the correct processes for a crash-stop run (the zero churn spec)
// and over the eventually-up processes under churn; the two sets coincide
// when nothing recovers, and only the wording of a violation differs. The
// runners and offline verification share it, so a recorded run is judged
// exactly as it was live.
func CheckConsensus(churn ChurnSpec, truth *fd.GroundTruth, proposals []Value, outcomes []core.Outcome) (ChurnConsensusResult, error) {
	verify := check.Consensus
	if churn.Fraction > 0 {
		verify = check.ConsensusChurn
	}
	rep, err := verify(truth, proposals, outcomes)
	if err != nil {
		return ChurnConsensusResult{}, err
	}
	res := ChurnConsensusResult{
		Report:       rep,
		LastChange:   truth.LastChange(),
		EventuallyUp: len(truth.EventuallyUp()),
		Correct:      len(truth.Correct()),
	}
	if rep.LastDecision > res.LastChange {
		res.DecideAfterChurn = rep.LastDecision - res.LastChange
	}
	return res, nil
}

// FaultPattern expands a churn spec plus permanent crashes into the
// combined schedule and its ground truth, with the same validation the
// churn runners apply (events within the horizon, no process driven by
// both mechanisms). Offline verification uses it to rebuild the exact
// fault pattern a recorded run verified against from the scenario
// fingerprint alone.
func FaultPattern(ids Assignment, churn ChurnSpec, crashes map[PID]Time, horizon Time) ([]ChurnEvent, *fd.GroundTruth, error) {
	return churnFaultPattern(ids, churn, crashes, horizon)
}

// churnFaultPattern expands the churn spec, folds permanent crashes into
// the same schedule, validates the combination (events within the horizon,
// no process driven by both mechanisms), and derives the ground truth.
func churnFaultPattern(ids Assignment, churn ChurnSpec, crashes map[PID]Time, horizon Time) ([]ChurnEvent, *fd.GroundTruth, error) {
	schedule := churn.Events(ids.N())
	if len(crashes) > 0 {
		churners := make(map[PID]bool, len(schedule))
		for _, ev := range schedule {
			churners[ev.P] = true
		}
		overlap := make([]int, 0, len(crashes))
		for p := range crashes {
			if churners[p] {
				overlap = append(overlap, int(p))
			}
		}
		if len(overlap) > 0 {
			sort.Ints(overlap)
			return nil, nil, fmt.Errorf("hds: process(es) %v appear in both the churn schedule and the Crashes map — use one crash mechanism per process (the engine would interleave both into a schedule nobody asked for)", overlap)
		}
		// Append in ascending PID order: the combined schedule is applied
		// to the engine in slice order, and same-time events are
		// tie-broken by registration sequence — map order must not leak.
		pids := make([]PID, 0, len(crashes))
		for p := range crashes {
			pids = append(pids, p)
		}
		slices.Sort(pids)
		for _, p := range pids {
			schedule = append(schedule, ChurnEvent{P: p, At: crashes[p]})
		}
	}
	// Validate the horizon against the *combined* schedule: a permanent
	// crash past the horizon would be silently truncated exactly like a
	// churn event, and the ground truth (which assumes every scheduled
	// event fires) would then verify a fault pattern the run never had.
	if err := validateChurnHorizon(schedule, horizon); err != nil {
		return nil, nil, err
	}
	return schedule, fd.NewGroundTruthFromChurn(ids, schedule), nil
}

// validateChurnHorizon rejects schedules whose last event is not strictly
// before the horizon: the run would truncate the fault pattern and verify
// a scenario nobody specified.
func validateChurnHorizon(schedule []ChurnEvent, horizon Time) error {
	var last Time
	for _, ev := range schedule {
		if ev.At > last {
			last = ev.At
		}
	}
	if len(schedule) > 0 && last >= horizon {
		return fmt.Errorf("hds: the fault schedule's last event at t=%d is not before the horizon %d — the run would truncate the fault pattern", last, horizon)
	}
	return nil
}
