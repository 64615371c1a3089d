package hds

import (
	"fmt"

	"repro/internal/fd"
	"repro/internal/sim"
	"repro/internal/trace"
)

// HeartbeatExperiment is the scalable churn workload: every process beats
// (one broadcast) every Period, churners cycle down and up, and the run is
// judged on engine-level ground truth and aggregate costs rather than on a
// full detector stack — which is what makes n in the hundreds to thousands
// affordable. It is the stress harness for the engine's crash-recovery
// path, not a paper artifact.
type HeartbeatExperiment struct {
	IDs   Assignment
	Churn ChurnSpec
	// Net defaults to Async{MaxDelay: 8}.
	Net    sim.Model
	Period Time // beat interval, default 10
	Seed   int64
	// Horizon caps virtual time (default 10 periods).
	Horizon Time
	// Beaters bounds how many processes beat (the first Beaters PIDs); the
	// rest only listen. 0 means all n beat. With a fixed beater count the
	// event volume is Θ(Beaters·n) instead of Θ(n²), so population scaling
	// sweeps can grow n while every broadcast still fans out to all n live
	// recipients — n remains the stressed dimension.
	Beaters int
	// MaxEvents overrides the engine's runaway guard (0 = engine default).
	MaxEvents int
	// Trace, when non-nil, replaces the default stats-only recorder (see
	// OHPExperiment.Trace).
	Trace *trace.Recorder
	// StreamVerify additionally attaches a streaming probe (O(1) state per
	// process) over the per-process delivery counters and, on complete
	// runs, verifies delivery liveness: every eventually-up process heard
	// at least one beat. This is the large-n stand-in for the detector
	// checkers, which a heartbeat-only workload cannot run.
	StreamVerify bool
}

// HeartbeatResult reports one heartbeat-churn run.
type HeartbeatResult struct {
	// Processed is the number of simulator events executed.
	Processed int
	// Stopped is why the run ended (quiescent, horizon, max-events).
	Stopped sim.StopReason
	// EventuallyUp and Correct are |EventuallyUp| and |Correct|.
	EventuallyUp, Correct int
	// Recoveries counts executed recover events.
	Recoveries int
	// MaxQueue is the engine's event-queue high-water mark — with lazy
	// fan-out it tracks live broadcasts and timers, not n² message copies,
	// which is what makes large-n sweeps constant-memory.
	MaxQueue int
	// Stats aggregates message costs.
	Stats Stats
}

// beat is the heartbeat payload.
type beat struct{}

// MsgTag implements sim.Tagger.
func (beat) MsgTag() string { return "BEAT" }

// heartbeater broadcasts one beat per period and restarts its chain after
// recovery (timer epochs keep exactly one chain live). A listen-only
// heartbeater (beats=false) never broadcasts or arms timers; it just
// counts deliveries, which keeps pure listeners off the event queue.
type heartbeater struct {
	env    sim.Environment
	period Time
	epoch  int
	heard  int
	beats  bool
}

func (h *heartbeater) Init(env sim.Environment) {
	h.env = env
	if !h.beats {
		return
	}
	env.Broadcast(beat{})
	env.SetTimer(h.period, h.epoch)
}

func (h *heartbeater) OnMessage(any) { h.heard++ }

func (h *heartbeater) OnTimer(tag int) {
	if tag != h.epoch {
		return // stale pre-outage timer
	}
	h.env.Broadcast(beat{})
	h.env.SetTimer(h.period, h.epoch)
}

func (h *heartbeater) OnRecover() {
	if !h.beats {
		return
	}
	h.epoch++
	h.env.Broadcast(beat{})
	h.env.SetTimer(h.period, h.epoch)
}

var (
	_ sim.Process   = (*heartbeater)(nil)
	_ sim.Recoverer = (*heartbeater)(nil)
)

// RunHeartbeatChurn executes the heartbeat workload under churn and
// cross-checks the engine's incremental Correct/EventuallyUp bookkeeping
// against the schedule-derived ground truth. On every run — truncated or
// not — the per-process delivery counters must sum to exactly the
// recorder's Delivered count: one OnMessage per delivery trace, the
// end-to-end accounting check on the lazy fan-out path. Like RunOHP it
// rejects invalid assignments and horizons that truncate the churn
// schedule.
func RunHeartbeatChurn(e HeartbeatExperiment) (HeartbeatResult, error) {
	if err := e.IDs.Validate(); err != nil {
		return HeartbeatResult{}, fmt.Errorf("hds: %w", err)
	}
	if e.Period <= 0 {
		e.Period = 10
	}
	if e.Horizon == 0 {
		e.Horizon = 10 * e.Period
	}
	n := e.IDs.N()
	beaters := e.Beaters
	if beaters <= 0 || beaters > n {
		beaters = n
	}
	schedule := e.Churn.Events(n)
	if err := validateChurnHorizon(schedule, e.Horizon); err != nil {
		return HeartbeatResult{}, err
	}
	net := e.Net
	if net == nil {
		net = sim.Async{MaxDelay: 8}
	}
	rec := traceRecorder(e.Trace) // default is stats-only: keeps big n cheap
	eng := sim.New(sim.Config{IDs: e.IDs, Net: net, Seed: e.Seed, Recorder: rec, MaxEvents: e.MaxEvents})
	beats := make([]*heartbeater, n)
	for i := 0; i < n; i++ {
		beats[i] = &heartbeater{period: e.Period, beats: i < beaters}
		eng.AddProcess(beats[i])
	}
	eng.ApplyChurn(schedule)
	truth := fd.NewGroundTruthFromChurn(e.IDs, schedule)

	var heardProbe *fd.StreamProbe[int]
	if e.StreamVerify {
		heardProbe = fd.NewStreamProbe(eng, n, func(p sim.PID) (int, bool) {
			if eng.Crashed(p) {
				return 0, false
			}
			return beats[p].heard, true
		}, func(a, b int) bool { return a == b })
	}

	eng.Run(e.Horizon)
	complete := eng.Stopped() != sim.StopMaxEvents
	if complete {
		// A truncated run's engine state is still consistent, but the
		// schedule may not have fully fired; only cross-check complete runs.
		if err := checkTruthConsistency(eng, truth); err != nil {
			return HeartbeatResult{}, err
		}
	}
	stats := rec.Stats()
	heard := 0
	for _, h := range beats {
		heard += h.heard
	}
	if heard != stats.Delivered {
		return HeartbeatResult{}, fmt.Errorf(
			"hds: processes heard %d beats but the recorder delivered %d — fan-out accounting drift", heard, stats.Delivered)
	}
	if heardProbe != nil && complete {
		for _, p := range truth.EventuallyUp() {
			if got, ok := heardProbe.Last(p); !ok || got == 0 {
				return HeartbeatResult{}, fmt.Errorf("hds: eventually-up process %d heard no beats", p)
			}
		}
	}
	return HeartbeatResult{
		Processed:    eng.Processed(),
		Stopped:      eng.Stopped(),
		EventuallyUp: len(truth.EventuallyUp()),
		Correct:      len(truth.Correct()),
		Recoveries:   eng.Recoveries(),
		MaxQueue:     eng.MaxQueueLen(),
		Stats:        rec.Stats(),
	}, nil
}

// checkTruthConsistency asserts that the engine's incremental fault
// bookkeeping (pending-crash counters, crash/recover schedule keys) agrees
// with the ground truth derived independently from the schedule. Any
// divergence means the engine's CorrectSet/EventuallyUpSet — the sets every
// checker verdict is relative to — has drifted from what actually happened.
func checkTruthConsistency(eng *sim.Engine, truth *fd.GroundTruth) error {
	if got, want := eng.CorrectSet(), truth.Correct(); !samePIDs(got, want) {
		return fmt.Errorf("hds: engine CorrectSet %v disagrees with ground truth %v", got, want)
	}
	if got, want := eng.EventuallyUpSet(), truth.EventuallyUp(); !samePIDs(got, want) {
		return fmt.Errorf("hds: engine EventuallyUpSet %v disagrees with ground truth %v", got, want)
	}
	return nil
}

func samePIDs(a, b []sim.PID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
