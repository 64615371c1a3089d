// Package replay re-verifies recorded executions offline: from a v2 trace
// (scenario fingerprint + event stream) alone it rebuilds the scenario the
// live run verified against — reusing the same spec parsers and defaulting
// rules as cmd/hdsim — reconstructs every checker input from the events,
// and re-runs the checkers. The rendered verdict block is produced by the
// same renderers the live driver prints through, so a healthy replay is
// byte-identical to the live report (minus engine-only counters), and any
// difference is a determinism regression, not a formatting accident.
package replay

import (
	"fmt"

	hds "repro"
	"repro/internal/cliutil"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Scenario is a trace's fingerprint resolved into runnable terms: the
// identifier assignment, the effective network model, the fault inputs and
// the per-algorithm horizon — everything the checkers need, derived with
// exactly cmd/hdsim's flag-processing rules so a spec string means the
// same thing live and offline.
type Scenario struct {
	Meta    *trace.Meta
	IDs     hds.Assignment
	Crashes map[hds.PID]hds.Time
	Churn   hds.ChurnSpec
	// Net is the effective network model (after the default chain and any
	// partition wrap) — what the run actually used and what headers print.
	Net sim.Model
	// Horizon is the effective virtual-time cap after per-algorithm
	// defaulting; fault schedules are validated against it.
	Horizon hds.Time
}

// BuildScenario resolves a scenario fingerprint. It mirrors cmd/hdsim:
// the base network is Async{MaxDelay: 8}, -gst>0 switches to PartialSync,
// an explicit -net spec overrides both, partitions wrap the result; ohp
// ignores the chain unless -net or -gst was given (its own defaults are
// PartialSync{GST, Delta} crash-stop and PartialSync{Delta: 3} under
// churn); horizons default to 3,000,000 for consensus, 5,000 for ohp and
// 10 periods for heartbeat.
func BuildScenario(m *trace.Meta) (*Scenario, error) {
	if m == nil {
		return nil, fmt.Errorf("replay: trace carries no scenario metadata (recorded by an older hdsim?)")
	}
	switch m.Algo {
	case "fig8", "fig9", "fig9-anon", "ohp", "heartbeat":
	default:
		return nil, fmt.Errorf("replay: unknown algorithm %q in trace metadata", m.Algo)
	}
	if err := cliutil.ValidateSize(m.N, m.L); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	sc := &Scenario{Meta: m, IDs: hds.BalancedIDs(m.N, m.L)}
	var err error
	if sc.Crashes, err = cliutil.ParseCrashes(m.Crashes); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	if sc.Churn, err = cliutil.ParseChurn(m.Churn); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}

	var net sim.Model = hds.Async{MaxDelay: 8}
	if m.GST > 0 {
		net = hds.PartialSync{GST: hds.Time(m.GST), Delta: hds.Time(m.Delta)}
	}
	if m.Net != "" {
		if net, err = cliutil.ParseNet(m.Net); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
	}
	if m.Partitions != "" {
		ws, err := cliutil.ParsePartitions(m.Partitions)
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		net = sim.Partition{Base: net, Windows: ws}
	}
	sc.Net = net

	sc.Horizon = hds.Time(m.Horizon)
	switch m.Algo {
	case "ohp":
		// The override rule is the live driver's: the chain above applies
		// only when -net or -gst was given; otherwise ohp has its own
		// defaults (and renders them with the raw -delta, like the live
		// header does).
		if netGiven := m.Net != "" || m.GST > 0; !netGiven {
			if sc.Churn.Fraction > 0 {
				sc.Net = hds.PartialSync{Delta: 3}
			} else {
				sc.Net = hds.PartialSync{GST: hds.Time(m.GST), Delta: hds.Time(m.Delta)}
			}
		}
		if sc.Horizon <= 0 {
			sc.Horizon = 5000
		}
	case "heartbeat":
		if sc.Horizon <= 0 {
			period := hds.Time(m.Period)
			if period <= 0 {
				period = 10
			}
			sc.Horizon = 10 * period
		}
	default: // consensus
		if sc.Horizon <= 0 {
			sc.Horizon = 3_000_000
		}
	}
	return sc, nil
}
