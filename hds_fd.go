package hds

import (
	"slices"

	"repro/internal/fd"
	"repro/internal/fd/hsigma"
	"repro/internal/fd/ohp"
	"repro/internal/ident"
	"repro/internal/multiset"
	"repro/internal/sim"
	"repro/internal/trace"
)

// OHPExperiment describes one standalone run of the Figure 6 detector
// (◇HP̄ + HΩ) in the partially synchronous system HPS. The zero Churn spec
// is the paper's crash-stop model; a non-zero one cycles churners down and
// up, and the detector must re-converge to I(EventuallyUp) — the
// crash-recovery restatement of the class properties, whose crash-stop
// forms are the special case with no recoveries.
type OHPExperiment struct {
	IDs   Assignment
	Churn ChurnSpec
	// Crashes are permanent crash-stop crashes, folded into the churn
	// schedule; a process may appear in at most one of the two.
	Crashes map[PID]Time
	// Net defaults to PartialSync{Delta: 3}: timely from the start, so a
	// measured (re-)stabilization is attributable to the faults, not to
	// GST. Any eventually timely model works (the truncated heavy-tail
	// models qualify: their Cap bounds every delay); the delay ablation
	// experiment (E19) sweeps them.
	Net  sim.Model
	Seed int64
	// Horizon caps virtual time (default 5000). It must exceed the fault
	// schedule's last event (enforced).
	Horizon Time
	// MaxEvents overrides the engine's runaway guard (0 = engine default).
	MaxEvents int
	// Trace, when non-nil, replaces the default stats-only recorder: pass
	// a retaining recorder for a full in-memory trace, or one with a
	// trace.Sink attached to stream batches (spill mode). The caller owns
	// flushing.
	Trace *trace.Recorder
}

// OHPResult reports the verified detector run. A run that executed but
// failed verification still reports Stopped and Stats alongside the error.
type OHPResult struct {
	// TrustedStabilization is the virtual time at which the last
	// eventually-up process's h_trusted changed for the last time (to
	// I(EventuallyUp), which is I(Correct) in a crash-stop run).
	TrustedStabilization Time
	// LeaderStabilization is the analogous instant for the HΩ output.
	LeaderStabilization Time
	// Leader is the stabilized HΩ output.
	Leader LeaderInfo
	// LastChange is the final fault-pattern change (last crash or
	// recovery) — the earliest instant re-stabilization could begin.
	LastChange Time
	// EventuallyUp and Correct are |EventuallyUp| and |Correct|.
	EventuallyUp, Correct int
	// Recoveries counts executed recover events.
	Recoveries int
	// Stopped is why the run ended (horizon for a healthy detector run:
	// polling never quiesces).
	Stopped sim.StopReason
	// Stats aggregates message costs over the horizon.
	Stats Stats
	// FinalTimeouts are the adapted per-process timeout values.
	FinalTimeouts []Time
}

// RunOHP executes Figure 6 on every process under the fault schedule,
// verifies the ◇HP̄ and HΩ class properties against the ground truth,
// cross-checks the engine's incremental fault bookkeeping against the
// schedule-derived truth, and reports stabilization times and costs
// (experiments E6/E7, E18). Malformed inputs — an invalid assignment, a
// crash naming no process, or a horizon that cuts the fault schedule short
// — are rejected with errors, not run: a truncated schedule would yield
// meaningless stabilization times.
func RunOHP(e OHPExperiment) (OHPResult, error) {
	if err := validateExperiment(e.IDs, e.Crashes, nil); err != nil {
		return OHPResult{}, err
	}
	if e.Horizon == 0 {
		e.Horizon = 5000
	}
	schedule, truth, err := churnFaultPattern(e.IDs, e.Churn, e.Crashes, e.Horizon)
	if err != nil {
		return OHPResult{}, err
	}
	net := e.Net
	if net == nil {
		net = sim.PartialSync{Delta: 3}
	}
	n := e.IDs.N()
	rec := traceRecorder(e.Trace)
	eng := sim.New(sim.Config{IDs: e.IDs, Net: net, Seed: e.Seed, Recorder: rec, MaxEvents: e.MaxEvents})
	dets := make([]*ohp.Detector, n)
	for i := range dets {
		dets[i] = ohp.New()
		eng.AddProcess(dets[i])
	}
	eng.ApplyChurn(schedule)
	// The trusted probe samples the detector's live view: no clone on the
	// per-event path (OnTimer replaces h_trusted wholesale, so stored views
	// are never mutated after sampling). Streaming probes suffice — the
	// checkers judge final views and stabilization times only, so O(1)
	// state per process — and their change streams feed the trace when one
	// is kept, so a replay can re-verify the same verdicts. Equivalence
	// with the materialized Probe pipeline is pinned in internal/fd.
	trustedProbe := fd.NewStreamProbe(eng, n, func(p sim.PID) (*multiset.Multiset[ident.ID], bool) {
		if eng.Crashed(p) {
			return nil, false
		}
		return dets[p].TrustedView(), true
	}, func(a, b *multiset.Multiset[ident.ID]) bool { return a.Equal(b) })
	leaderProbe := fd.NewStreamProbe(eng, n, func(p sim.PID) (fd.LeaderInfo, bool) {
		if eng.Crashed(p) {
			return fd.LeaderInfo{}, false
		}
		return dets[p].Leader()
	}, func(a, b fd.LeaderInfo) bool { return a == b })
	if rec.Retaining() {
		fd.RecordChanges(rec, trustedProbe, fd.TagTrusted, fd.RenderView)
		fd.RecordChanges(rec, leaderProbe, fd.TagLeader, fd.RenderLeader)
	}

	eng.Run(e.Horizon)
	// A run that executed reports how it stopped and what it cost even
	// when it fails verification.
	failed := func(err error) (OHPResult, error) {
		return OHPResult{Stopped: eng.Stopped(), Stats: rec.Stats()}, err
	}
	if err := guardErr(eng); err != nil {
		return failed(err)
	}
	if err := checkTruthConsistency(eng, truth); err != nil {
		return failed(err)
	}
	out, err := CheckOHP(truth, trustedProbe, leaderProbe)
	if err != nil {
		return failed(err)
	}
	out.Recoveries = eng.Recoveries()
	out.Stopped = eng.Stopped()
	out.Stats = rec.Stats()
	for _, d := range dets {
		out.FinalTimeouts = append(out.FinalTimeouts, d.Timeout())
	}
	return out, nil
}

// CheckOHP verifies the ◇HP̄ and HΩ class properties of the sampled
// detector outputs against the ground truth and fills in the result's
// verdict fields (stabilization times, leader, fault-pattern summary).
// The runner and offline verification share it, so a recorded run is
// judged exactly as it was live.
func CheckOHP(truth *fd.GroundTruth, trusted fd.FinalView[*multiset.Multiset[ident.ID]], leader fd.FinalView[fd.LeaderInfo]) (OHPResult, error) {
	resT, err := fd.CheckDiamondHPbar(truth, trusted)
	if err != nil {
		return OHPResult{}, err
	}
	resL, err := fd.CheckHOmega(truth, leader)
	if err != nil {
		return OHPResult{}, err
	}
	out := OHPResult{
		TrustedStabilization: resT.StabilizationTime,
		LeaderStabilization:  resL.StabilizationTime,
		LastChange:           truth.LastChange(),
		EventuallyUp:         len(truth.EventuallyUp()),
		Correct:              len(truth.Correct()),
	}
	if up := truth.EventuallyUp(); len(up) > 0 {
		out.Leader, _ = leader.Last(up[0])
	}
	return out, nil
}

// HSigmaExperiment describes one run of the Figure 7 detector in the
// synchronous system HSS.
type HSigmaExperiment struct {
	IDs Assignment
	// CrashSteps maps process → (step, deliverProb): the process crashes
	// during that step, its broadcast reaching each peer with deliverProb.
	CrashSteps map[PID]CrashStep
	Steps      int
	Seed       int64
}

// CrashStep is a synchronous crash specification.
type CrashStep struct {
	Step        int
	DeliverProb float64
}

// HSigmaResult reports the verified Figure 7 run.
type HSigmaResult struct {
	// StabilizationStep is the step after which outputs stopped changing.
	StabilizationStep Time
	// QuoraPerProcess is the final |h_quora| at each surviving process.
	QuoraPerProcess []int
	Stats           Stats
}

// RunHSigma executes Figure 7, verifies all four HΣ axioms, and reports
// stabilization and quora sizes (experiment E8).
func RunHSigma(e HSigmaExperiment) (HSigmaResult, error) {
	if e.Steps == 0 {
		e.Steps = 12
	}
	n := e.IDs.N()
	rec := &trace.Recorder{}
	eng := sim.NewSync(sim.SyncConfig{IDs: e.IDs, Seed: e.Seed, Recorder: rec})
	dets := make([]*hsigma.Detector, n)
	for i := range dets {
		dets[i] = hsigma.New()
		eng.AddProcess(dets[i])
	}
	// Register in ascending PID order: CrashAtStep appends to the step's
	// crash list, and the sync engine replays that list, so map iteration
	// order would otherwise reach the trace.
	crashPids := make([]sim.PID, 0, len(e.CrashSteps))
	for p := range e.CrashSteps {
		crashPids = append(crashPids, p)
	}
	slices.Sort(crashPids)
	crashTimes := make(map[sim.PID]sim.Time, len(e.CrashSteps))
	for _, p := range crashPids {
		cs := e.CrashSteps[p]
		eng.CrashAtStep(p, cs.Step, cs.DeliverProb)
		crashTimes[p] = sim.Time(cs.Step)
	}
	truth := fd.NewGroundTruth(e.IDs, crashTimes)
	quora := fd.NewSyncProbe(eng, n, func(p sim.PID) ([]fd.QuorumPair, bool) {
		if eng.Crashed(p) {
			return nil, false
		}
		return dets[p].Quora(), true
	}, quoraEq)
	labels := fd.NewSyncProbe(eng, n, func(p sim.PID) ([]fd.Label, bool) {
		if eng.Crashed(p) {
			return nil, false
		}
		return dets[p].Labels(), true
	}, fd.LabelsEqual)

	eng.RunSteps(e.Steps)

	res, err := fd.CheckHSigma(truth, quora, labels)
	if err != nil {
		return HSigmaResult{}, err
	}
	out := HSigmaResult{StabilizationStep: res.StabilizationTime, Stats: rec.Stats()}
	for p := 0; p < n; p++ {
		if !eng.Crashed(sim.PID(p)) {
			out.QuoraPerProcess = append(out.QuoraPerProcess, len(dets[p].Quora()))
		}
	}
	return out, nil
}

func quoraEq(a, b []fd.QuorumPair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Label != b[i].Label || !a[i].M.Equal(b[i].M) {
			return false
		}
	}
	return true
}
