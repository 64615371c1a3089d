// Package replay resolves scenario fingerprints and re-verifies recorded
// executions offline. BuildScenario is the one place a fingerprint — the
// hdsim flag surface, as embedded in a v2 trace — becomes runnable terms:
// cmd/hdsim resolves its flags through it before a live run, and Verify
// resolves a trace's fingerprint through it before replaying, so a spec
// string means the same thing live and offline. From the trace alone,
// Verify reconstructs every checker input from the events and re-runs the
// checkers. The rendered verdict block is produced by the same renderers
// the live driver prints through, so a healthy replay is byte-identical
// to the live report (minus engine-only counters), and any difference is a
// determinism regression, not a formatting accident.
package replay

import (
	"fmt"

	hds "repro"
	"repro/internal/cliutil"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Scenario is a fingerprint resolved into runnable terms: the identifier
// assignment, the effective network model, the fault inputs and the
// per-algorithm horizon.
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

// BuildScenario validates and resolves a scenario fingerprint m, which
// must be non-nil. The base network is Async{MaxDelay: 8} — or, for ohp,
// which runs in HPS, PartialSync{GST, Delta}; -gst>0 switches to
// PartialSync{GST, Delta}; an explicit -net spec overrides both; partitions
// wrap the result. Horizons default to 3,000,000 for consensus, 5,000 for
// ohp and 10 periods for heartbeat.
func BuildScenario(m *trace.Meta) (*Scenario, error) {
	switch m.Algo {
	case "fig8", "fig9", "fig9-anon", "ohp", "heartbeat":
	default:
		return nil, fmt.Errorf("unknown algorithm %q", m.Algo)
	}
	if err := cliutil.ValidateSize(m.N, m.L); err != nil {
		return nil, err
	}
	if err := cliutil.ValidateTiming(m.GST, m.Delta); err != nil {
		return nil, err
	}
	sc := &Scenario{Meta: m, IDs: hds.BalancedIDs(m.N, m.L)}
	var err error
	if sc.Crashes, err = cliutil.ParseCrashes(m.Crashes); err != nil {
		return nil, err
	}
	if sc.Churn, err = cliutil.ParseChurn(m.Churn); err != nil {
		return nil, err
	}

	var net sim.Model = hds.Async{MaxDelay: 8}
	if m.GST > 0 || m.Algo == "ohp" {
		net = hds.PartialSync{GST: hds.Time(m.GST), Delta: hds.Time(m.Delta)}
	}
	if m.Net != "" {
		if net, err = cliutil.ParseNet(m.Net); err != nil {
			return nil, err
		}
	}
	if m.Partitions != "" {
		ws, err := cliutil.ParsePartitions(m.Partitions)
		if err != nil {
			return nil, err
		}
		if err := cliutil.ValidatePartitionN(ws, m.N); err != nil {
			return nil, err
		}
		// 0 means "algorithm default", which every algorithm sets far
		// beyond any sane window schedule, so only an explicit horizon is
		// checked.
		if m.Horizon > 0 {
			if err := cliutil.ValidatePartitionHorizon(ws, hds.Time(m.Horizon)); err != nil {
				return nil, err
			}
		}
		net = sim.Partition{Base: net, Windows: ws}
	}
	sc.Net = net

	sc.Horizon = hds.Time(m.Horizon)
	if sc.Horizon <= 0 {
		switch m.Algo {
		case "ohp":
			sc.Horizon = 5000
		case "heartbeat":
			period := hds.Time(m.Period)
			if period <= 0 {
				period = 10
			}
			sc.Horizon = 10 * period
		default: // consensus
			sc.Horizon = 3_000_000
		}
	}
	return sc, nil
}
