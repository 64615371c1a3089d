// Package hds (Homonymous Distributed Systems) is the public face of this
// repository: a library reproducing "Failure Detectors in Homonymous
// Distributed Systems (with an Application to Consensus)" (Arévalo,
// Fernández Anta, Imbs, Jiménez, Raynal; ICDCS 2012).
//
// The library provides, over a deterministic discrete-event simulator and
// a live goroutine runtime:
//
//   - the homonymous failure detector classes HΩ, HΣ and ◇HP̄, with the
//     paper's message-passing implementations (Figures 3, 6, 7), oracle
//     implementations for adversarial testing, and trace-based property
//     checkers for every class axiom;
//   - the reductions between classes (Figures 1, 2, 4; Theorems 1–4;
//     Observation 1) as executable, machine-checked transformations;
//   - the two consensus algorithms (Figures 8 and 9) plus the anonymous
//     baseline they derive from, with consensus-property checking.
//
// Quick start — solve consensus among homonymous processes under a
// partially synchronous network, with the failure detector stack built
// from the paper's own Figure 6 algorithm:
//
//	report, stats, err := hds.RunFig8(hds.Fig8Experiment{
//		IDs:       hds.BalancedIDs(5, 2),       // 5 processes, 2 identifiers
//		T:         2,                           // tolerate 2 crashes
//		Crashes:   map[hds.PID]hds.Time{3: 40}, // p3 crashes at t=40
//		Net:       hds.PartialSync{GST: 60, Delta: 3},
//		Detectors: hds.MessagePassingDetectors, // Fig. 6 underneath
//		Seed:      1,
//	})
//
// The sub-packages under internal/ hold the implementation; this package
// re-exports the stable surface and offers turnkey experiment runners.
package hds

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/fd/oracle"
	"repro/internal/ident"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Identity types and constructors.
type (
	// ID is a process identifier; distinct processes may share one.
	ID = ident.ID
	// Assignment maps each process index to its identifier.
	Assignment = ident.Assignment
)

// Anonymous is the default identifier ⊥ of anonymous systems.
const Anonymous = ident.Anonymous

// UniqueIDs returns the classical assignment (ℓ = n).
func UniqueIDs(n int) Assignment { return ident.Unique(n) }

// AnonymousIDs returns the anonymous assignment (ℓ = 1).
func AnonymousIDs(n int) Assignment { return ident.AnonymousN(n) }

// BalancedIDs returns n processes spread evenly over l identifiers.
func BalancedIDs(n, l int) Assignment { return ident.Balanced(n, l) }

// SkewedIDs returns one identifier shared by heavy processes, the rest
// unique.
func SkewedIDs(n, heavy int) Assignment { return ident.Skewed(n, heavy) }

// DomainIDs groups processes into named domains sharing the domain name as
// identifier.
func DomainIDs(sizes map[string]int) Assignment { return ident.Domains(sizes) }

// RandomIDs draws each process's identifier uniformly from a space of the
// given size — collisions model sensor motes with random identities.
func RandomIDs(n, space int, r *rand.Rand) Assignment { return ident.Random(n, space, r) }

// Simulation types.
type (
	// PID is a process index (formalization/observability only).
	PID = sim.PID
	// Time is virtual time.
	Time = sim.Time
	// PartialSync is the HPS network model (eventually timely links).
	PartialSync = sim.PartialSync
	// Async is the HAS network model (reliable asynchronous links).
	Async = sim.Async
	// Pareto is the truncated heavy-tailed (Pareto) delay model.
	Pareto = sim.Pareto
	// LogNormal is the truncated log-normal delay model.
	LogNormal = sim.LogNormal
	// Alternating is time-varying partial synchrony (good/bad windows).
	Alternating = sim.Alternating
	// AsymmetricLinks adds a deterministic per-directed-link latency skew.
	AsymmetricLinks = sim.AsymmetricLinks
	// ChurnSpec generates deterministic crash-recovery churn schedules.
	ChurnSpec = sim.ChurnSpec
	// ChurnEvent is one crash/recover entry of a churn schedule.
	ChurnEvent = sim.ChurnEvent
	// Stats aggregates message costs of a run.
	Stats = trace.Stats
	// Report is the verified outcome of a consensus run.
	Report = check.Report
	// Value is a consensus proposal.
	Value = core.Value
	// LeaderInfo is the HΩ output pair (identifier, multiplicity).
	LeaderInfo = fd.LeaderInfo
)

// Failure detector query interfaces.
type (
	// HOmega is the class HΩ interface.
	HOmega = fd.HOmega
	// HSigma is the class HΣ interface.
	HSigma = fd.HSigma
	// DiamondHPbar is the class ◇HP̄ interface.
	DiamondHPbar = fd.DiamondHPbar
)

// DetectorSource selects how experiment runners build failure detectors.
type DetectorSource int

const (
	// OracleDetectors drive detectors from the simulator's global view
	// with a configurable stabilization time — consensus is tested against
	// the detector class, including adversarial pre-stabilization output.
	OracleDetectors DetectorSource = iota
	// MessagePassingDetectors stack the paper's own implementations
	// (Figure 6 for HΩ/◇HP̄) underneath the consensus algorithm.
	MessagePassingDetectors
)

// Fig8Experiment describes one run of the Figure 8 consensus
// (HAS[t < n/2, HΩ]). The zero Churn spec is the paper's crash-stop model;
// a non-zero one cycles churners down and up, recovered processes rejoin
// the protocol through the (REJOIN, r) round-resync exchange, and the
// consensus properties are verified in their crash-recovery restatement
// (Termination over the eventually-up processes, decisions surviving
// outages).
type Fig8Experiment struct {
	IDs Assignment
	// T is the crash budget: every process that ever crashes — churner or
	// permanent — spends it, matching the paper's "at most t faulty" under
	// the strict "correct = never crashes" reading. T < n/2 guarantees the
	// never-crashed majority completes rounds on its own, so rejoiners can
	// always catch up (at worst through the DECIDE relay).
	T     int
	Churn ChurnSpec
	// Crashes are permanent crash-stop crashes, folded into the churn
	// schedule. A process may appear in at most one of the two mechanisms;
	// overlapping configurations are rejected.
	Crashes map[PID]Time
	// Net defaults to the engine's Async{}; use an eventually timely model
	// with MessagePassingDetectors.
	Net sim.Model
	// Detectors defaults to OracleDetectors (whose stable views are stated
	// over the eventually-up set, so they re-converge after churn); with
	// MessagePassingDetectors the paper's Figure 6 stack — itself
	// recovery-capable — runs underneath.
	Detectors DetectorSource
	// Stabilize is the oracle stabilization time (OracleDetectors only).
	// Under churn, zero defaults to 50 past the schedule's last event, so
	// the adversary stays active through the whole churn phase.
	Stabilize Time
	// Adversary shapes pre-stabilization oracle output (OracleDetectors).
	Adversary oracle.Adversary
	// Proposals defaults to "v0".."v{n-1}".
	Proposals []Value
	Seed      int64
	// Horizon caps virtual time (default 1e6). It must exceed the fault
	// schedule's last event — a horizon that cuts the schedule short would
	// silently verify a different fault pattern — and the runner enforces
	// that instead of trusting the caller.
	Horizon Time
	// MaxEvents overrides the engine's runaway guard (0 = engine default).
	MaxEvents int
	// Trace, when non-nil, replaces the default stats-only recorder: pass
	// a retaining recorder for a full in-memory trace, or one with a
	// trace.Sink attached to stream batches (spill mode). The caller owns
	// flushing.
	Trace *trace.Recorder
}

// RunFig8 runs RunChurnFig8, the one Figure 8 runner, and returns only
// its report and stats. The three-value form is kept for the perfbench
// benchmark, which is frozen against it.
func RunFig8(e Fig8Experiment) (Report, Stats, error) {
	res, err := RunChurnFig8(e)
	return res.Report, res.Stats, err
}

// Fig9Experiment describes one run of the Figure 9 consensus
// (HAS[HΩ, HΣ]) or its anonymous baseline. Fig. 9 needs neither n nor t:
// quorums come from the HΣ detector, whose stable output under churn is
// built over the eventually-up set, so any churn schedule is admissible —
// including final-down churners that shrink the deciding population.
type Fig9Experiment struct {
	IDs   Assignment
	Churn ChurnSpec
	// Crashes are permanent crash-stop crashes; overlap with the churn
	// schedule is rejected (see Fig8Experiment.Crashes).
	Crashes map[PID]Time
	Net     sim.Model
	// AnonymousBaseline switches to the AΩ variant without the Leaders'
	// Coordination Phase (§5.3 closing remark).
	AnonymousBaseline bool
	// Stabilize defaults to 50 past the churn schedule's last event under
	// churn.
	Stabilize Time
	Adversary oracle.Adversary
	Proposals []Value
	Seed      int64
	// Horizon caps virtual time (default 1e6); must exceed the fault
	// schedule's last event (enforced).
	Horizon   Time
	MaxEvents int
	// Trace, when non-nil, replaces the default stats-only recorder (see
	// Fig8Experiment.Trace).
	Trace *trace.Recorder
}

// RunFig9 runs RunChurnFig9, the one Figure 9 runner, and returns only
// its report and stats (kept for perfbench, see RunFig8).
func RunFig9(e Fig9Experiment) (Report, Stats, error) {
	res, err := RunChurnFig9(e)
	return res.Report, res.Stats, err
}

// guardErr converts a MaxEvents-truncated run into an error. Every
// experiment driver calls it right after the run: a truncated execution is
// not a quiescent one, and silently reading its results would turn the
// runaway guard into a source of wrong tables.
func guardErr(eng *sim.Engine) error {
	if eng.Stopped() == sim.StopMaxEvents {
		return fmt.Errorf("hds: run truncated by the MaxEvents guard after %d events — raise MaxEvents or shrink the scenario", eng.Processed())
	}
	return nil
}

// DefaultProposals is the proposal vector every runner uses when the
// experiment supplies none: "v0".."v{n-1}". Exported so offline
// verification can reconstruct the proposals a recorded run was checked
// against from its scenario fingerprint alone.
func DefaultProposals(n int) []Value { return defaultProposals(n) }

func defaultProposals(n int) []Value {
	out := make([]Value, n)
	for i := range out {
		out[i] = Value(fmt.Sprintf("v%d", i))
	}
	return out
}

// validateExperiment rejects malformed experiment descriptions with errors
// rather than panics: runner inputs are user-facing.
func validateExperiment(ids Assignment, crashes map[PID]Time, proposals []Value) error {
	if err := ids.Validate(); err != nil {
		return fmt.Errorf("hds: %w", err)
	}
	n := ids.N()
	// Validate in ascending PID order: with several malformed entries, the
	// one named in the error must not depend on map iteration order.
	pids := make([]PID, 0, len(crashes))
	for p := range crashes {
		pids = append(pids, p)
	}
	slices.Sort(pids)
	for _, p := range pids {
		if int(p) < 0 || int(p) >= n {
			return fmt.Errorf("hds: crash schedule names process %d outside [0,%d)", p, n)
		}
		if at := crashes[p]; at < 0 {
			return fmt.Errorf("hds: crash time %d for process %d is negative", at, p)
		}
	}
	if proposals != nil && len(proposals) != n {
		return fmt.Errorf("hds: %d proposals for %d processes", len(proposals), n)
	}
	for i, v := range proposals {
		if v == core.Bottom {
			return fmt.Errorf("hds: process %d proposes the reserved ⊥ value", i)
		}
	}
	return nil
}

// traceRecorder returns the recorder an experiment runs with: the caller-
// provided one (which may retain events in memory or stream them through a
// trace.Sink) or the stats-only default. Runners read Stats from it either
// way; callers that attach a sink flush it themselves after the run.
func traceRecorder(custom *trace.Recorder) *trace.Recorder {
	if custom != nil {
		return custom
	}
	return &trace.Recorder{}
}
