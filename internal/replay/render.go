package replay

import (
	"fmt"
	"io"

	hds "repro"
	"repro/internal/cliutil"
)

// The report renderers below are the single source of the driver's output
// format: cmd/hdsim prints live results through them and Verify prints
// replayed results through them, so live and replay reports can differ
// only in the verified numbers — never in formatting. Engine-only lines
// (event counts, queue high-water) exist solely on the live side and are
// gated by the `engine` parameter.

// WriteConsensusHeader writes the single-run consensus header line.
func WriteConsensusHeader(w io.Writer, sc *Scenario) {
	m := sc.Meta
	fmt.Fprintf(w, "algo=%s n=%d ℓ=%d ids=%v crashes=%s churn=%s seed=%d\n",
		m.Algo, m.N, m.L, sc.IDs, m.Crashes, m.Churn, m.Seed)
}

// WriteConsensusBlock writes the verified-consensus report, in the
// crash-stop or the churn form depending on the scenario.
func WriteConsensusBlock(w io.Writer, sc *Scenario, res hds.ChurnConsensusResult) {
	churn := sc.Churn.Fraction > 0
	if churn {
		fmt.Fprintln(w, "consensus verified ✔ (termination over the eventually-up set, validity, agreement, decision stability)")
	} else {
		fmt.Fprintln(w, "consensus verified ✔ (termination, validity, agreement)")
	}
	rep, stats := res.Report, res.Stats
	fmt.Fprintf(w, "  decided value:    %q\n", rep.Value)
	fmt.Fprintf(w, "  deciders:         %d\n", rep.Deciders)
	fmt.Fprintf(w, "  rounds:           %d\n", rep.MaxRound)
	fmt.Fprintf(w, "  decisions span:   t=%d .. t=%d\n", rep.FirstDecision, rep.LastDecision)
	if churn {
		fmt.Fprintf(w, "  eventually up:    %d/%d (correct in the strict sense: %d)\n", res.EventuallyUp, sc.Meta.N, res.Correct)
		fmt.Fprintf(w, "  recoveries:       %d\n", res.Recoveries)
		fmt.Fprintf(w, "  last churn event: t=%d\n", res.LastChange)
		fmt.Fprintf(w, "  decide after churn: +%d\n", res.DecideAfterChurn)
	}
	fmt.Fprintf(w, "  broadcasts:       %d total — %s\n", stats.Broadcasts, cliutil.FormatTagCounts(stats.ByTag))
	fmt.Fprintf(w, "  deliveries/drops: %d/%d\n", stats.Delivered, stats.Dropped)
}

// WriteOHPHeader writes the standalone-detector header line (crash-stop or
// churn form, depending on the scenario).
func WriteOHPHeader(w io.Writer, sc *Scenario) {
	if sc.Churn.Fraction > 0 {
		fmt.Fprintf(w, "algo=ohp ids=%v churn=%s", sc.IDs, sc.Churn)
		if len(sc.Crashes) > 0 {
			fmt.Fprintf(w, " crashes=%d", len(sc.Crashes))
		}
		fmt.Fprintf(w, " net=%s seed=%d\n", sc.Net, sc.Meta.Seed)
		return
	}
	fmt.Fprintf(w, "algo=ohp ids=%v crashes=%d net=%s seed=%d\n", sc.IDs, len(sc.Crashes), sc.Net, sc.Meta.Seed)
}

// WriteOHPBlock writes the verified-detector report, in the crash-stop or
// the churn form depending on the scenario.
func WriteOHPBlock(w io.Writer, sc *Scenario, res hds.OHPResult) {
	if sc.Churn.Fraction > 0 {
		fmt.Fprintln(w, "detector verified ✔ (◇HP̄ + HΩ over the eventually-up set)")
		fmt.Fprintf(w, "  eventually up:    %d/%d (correct in the strict sense: %d)\n", res.EventuallyUp, sc.Meta.N, res.Correct)
		fmt.Fprintf(w, "  recoveries:       %d\n", res.Recoveries)
		fmt.Fprintf(w, "  last change:      t=%d\n", res.LastChange)
		fmt.Fprintf(w, "  ◇HP̄ re-stab:     t=%d\n", res.TrustedStabilization)
		fmt.Fprintf(w, "  HΩ re-stab:       t=%d  leader=%s\n", res.LeaderStabilization, res.Leader)
	} else {
		fmt.Fprintln(w, "detector verified ✔ (◇HP̄ + HΩ)")
		fmt.Fprintf(w, "  ◇HP̄ stabilized:  t=%d\n", res.TrustedStabilization)
		fmt.Fprintf(w, "  HΩ stabilized:    t=%d  leader=%s\n", res.LeaderStabilization, res.Leader)
	}
	fmt.Fprintf(w, "  broadcasts:       %d — %s\n", res.Stats.Broadcasts, cliutil.FormatTagCounts(res.Stats.ByTag))
}

// WriteHeartbeatHeader writes the heartbeat header line.
func WriteHeartbeatHeader(w io.Writer, sc *Scenario) {
	m := sc.Meta
	fmt.Fprintf(w, "algo=heartbeat n=%d ℓ=%d beaters=%s churn=%s net=%s period=%d seed=%d\n",
		m.N, m.L, BeatersLabel(m.Beaters, m.N), sc.Churn, sc.Net, m.Period, m.Seed)
}

// BeatersLabel renders the -beaters flag for headers ("all" or a count).
func BeatersLabel(beaters, n int) string {
	if beaters <= 0 || beaters >= n {
		return "all"
	}
	return fmt.Sprintf("%d", beaters)
}

// WriteHeartbeatBlock writes the heartbeat report. engine selects the live
// form: the live driver additionally cross-checks the engine's fault
// bookkeeping and prints the engine-only counters (events processed, queue
// high-water) that a trace cannot carry; a replay verifies the
// trace-derivable properties and prints only the shared lines.
func WriteHeartbeatBlock(w io.Writer, n int, res hds.HeartbeatResult, engine bool) {
	if engine {
		fmt.Fprintln(w, "heartbeat churn verified ✔ (fault bookkeeping vs schedule truth, heard-sum vs delivered, delivery liveness)")
	} else {
		fmt.Fprintln(w, "heartbeat churn verified ✔ (recoveries vs schedule truth, delivery liveness)")
	}
	fmt.Fprintf(w, "  eventually up:    %d/%d (correct in the strict sense: %d)\n", res.EventuallyUp, n, res.Correct)
	fmt.Fprintf(w, "  recoveries:       %d\n", res.Recoveries)
	if engine {
		fmt.Fprintf(w, "  events processed: %d (stop: %s)\n", res.Processed, res.Stopped)
	}
	fmt.Fprintf(w, "  deliveries/drops: %d/%d\n", res.Stats.Delivered, res.Stats.Dropped)
	if engine {
		fmt.Fprintf(w, "  queue high-water: %d entries (lazy fan-out: tracks broadcasts, not n² copies)\n", res.MaxQueue)
	}
}
