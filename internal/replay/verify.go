package replay

import (
	"fmt"
	"io"

	hds "repro"
	"repro/internal/check"
	"repro/internal/fd"
	"repro/internal/trace"
)

// Verify re-runs a recorded execution's property checkers from its trace
// alone — no engine, no re-execution — and writes the verdict report to w
// in the live driver's format. The event stream is consumed in one pass
// with state linear in the process count (never in the event count), so a
// population-scale spilled trace replays in constant memory exactly like
// it was recorded. A verification failure is returned as an error, with
// the same message the live checkers would have produced.
func Verify(m *trace.Meta, src trace.EventSource, w io.Writer) error {
	if m == nil {
		return fmt.Errorf("replay: trace carries no scenario metadata (recorded by an older hdsim?)")
	}
	sc, err := BuildScenario(m)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	switch m.Algo {
	case "fig8", "fig9", "fig9-anon":
		return verifyConsensus(sc, src, w)
	case "ohp":
		return verifyOHP(sc, src, w)
	case "heartbeat":
		return verifyHeartbeat(sc, src, w)
	}
	panic("unreachable: BuildScenario validated the algorithm")
}

// statsOf re-aggregates the execution statistics the live recorder kept:
// Record's counting path is the same code, so the replayed Stats agree
// with the live ones by construction.
type statsOf = trace.Recorder

func verifyConsensus(sc *Scenario, src trace.EventSource, w io.Writer) error {
	WriteConsensusHeader(w, sc)
	n := sc.Meta.N
	tracker := check.NewOutcomeTracker(n)
	rec := &statsOf{}
	recoveries := 0
	if err := trace.Drain(src, func(e trace.Event) error {
		rec.Record(e)
		if e.Kind == trace.KindRecover {
			recoveries++
		}
		tracker.Observe(e)
		return nil
	}); err != nil {
		return err
	}
	if err := tracker.Err(); err != nil {
		return err
	}

	_, truth, err := hds.FaultPattern(sc.IDs, sc.Churn, sc.Crashes, sc.Horizon)
	if err != nil {
		return err
	}
	res, err := hds.CheckConsensus(sc.Churn, truth, hds.DefaultProposals(n), tracker.Outcomes())
	if err != nil {
		return err
	}
	res.Recoveries = recoveries
	res.Stats = rec.Stats()
	WriteConsensusBlock(w, sc, res)
	return nil
}

func verifyOHP(sc *Scenario, src trace.EventSource, w io.Writer) error {
	WriteOHPHeader(w, sc)
	n := sc.Meta.N
	trusted := fd.NewTrustedReplayer(n)
	leader := fd.NewLeaderReplayer(n)
	rec := &statsOf{}
	recoveries := 0
	if err := trace.Drain(src, func(e trace.Event) error {
		rec.Record(e)
		if e.Kind == trace.KindRecover {
			recoveries++
		}
		trusted.Observe(e)
		leader.Observe(e)
		return nil
	}); err != nil {
		return err
	}
	if err := trusted.Err(); err != nil {
		return err
	}
	if err := leader.Err(); err != nil {
		return err
	}

	_, truth, err := hds.FaultPattern(sc.IDs, sc.Churn, sc.Crashes, sc.Horizon)
	if err != nil {
		return err
	}
	res, err := hds.CheckOHP(truth, trusted.Probe(), leader.Probe())
	if err != nil {
		return err
	}
	res.Recoveries = recoveries
	res.Stats = rec.Stats()
	WriteOHPBlock(w, sc, res)
	return nil
}

func verifyHeartbeat(sc *Scenario, src trace.EventSource, w io.Writer) error {
	WriteHeartbeatHeader(w, sc)
	n := sc.Meta.N
	heard := make([]int, n)
	rec := &statsOf{}
	recoveries := 0
	if err := trace.Drain(src, func(e trace.Event) error {
		rec.Record(e)
		switch e.Kind {
		case trace.KindDeliver:
			if e.PID >= 0 && e.PID < n {
				heard[e.PID]++
			}
		case trace.KindRecover:
			recoveries++
		}
		return nil
	}); err != nil {
		return err
	}

	schedule, truth, err := hds.FaultPattern(sc.IDs, sc.Churn, nil, sc.Horizon)
	if err != nil {
		return err
	}
	want := 0
	for _, ev := range schedule {
		if ev.Recover {
			want++
		}
	}
	if recoveries != want {
		return fmt.Errorf("replay: trace records %d recoveries but the schedule fires %d", recoveries, want)
	}
	for _, p := range truth.EventuallyUp() {
		if heard[p] == 0 {
			return fmt.Errorf("hds: eventually-up process %d heard no beats", p)
		}
	}
	res := hds.HeartbeatResult{
		EventuallyUp: len(truth.EventuallyUp()),
		Correct:      len(truth.Correct()),
		Recoveries:   recoveries,
		Stats:        rec.Stats(),
	}
	WriteHeartbeatBlock(w, n, res, false)
	return nil
}
