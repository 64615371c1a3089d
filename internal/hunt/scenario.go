package hunt

import (
	"fmt"
	"sort"
	"strings"

	hds "repro"
	"repro/internal/cliutil"
	"repro/internal/fd/oracle"
	"repro/internal/sim"
)

// Kinds a Scenario can run, in canonical order (mutators cycle through
// this list; keep it sorted the way the CLI documents the algorithms).
var Kinds = []string{"fig8", "fig9", "fig9-anon", "ohp", "heartbeat"}

// CrashEntry is one permanent crash-stop entry. Scenarios carry crashes
// as a PID-sorted slice, not a map, so their JSON form and fingerprint
// are canonical.
type CrashEntry struct {
	P  sim.PID  `json:"p"`
	At sim.Time `json:"at"`
}

// Scenario is one complete, runnable experiment configuration: everything
// the verdict depends on, and nothing else. It is the unit the fuzzer
// mutates, the shrinker reduces, and the corpus checks in — so every
// field is plain data with a canonical encoding.
type Scenario struct {
	Kind string `json:"kind"`
	N    int    `json:"n"`
	L    int    `json:"l"`
	// T is fig8's crash budget; ignored by the other kinds.
	T    int   `json:"t,omitempty"`
	Seed int64 `json:"seed"`
	// Horizon of 0 means the runner's default.
	Horizon sim.Time      `json:"horizon,omitempty"`
	Churn   sim.ChurnSpec `json:"churn,omitempty"`
	Crashes []CrashEntry  `json:"crashes,omitempty"`
	// Net is a cliutil.ParseNet spec; "" means the runner's default.
	Net        string                `json:"net,omitempty"`
	Partitions []sim.PartitionWindow `json:"partitions,omitempty"`
	// Adversary is none, rotate, or split ("" = rotate, the CLI default).
	Adversary string   `json:"adversary,omitempty"`
	Stabilize sim.Time `json:"stabilize,omitempty"`
	// MaxEvents overrides the engine's runaway guard (every runner
	// supports it). Mutators leave it 0: a tight cap turns every scenario
	// into a guard "failure".
	MaxEvents int `json:"maxEvents,omitempty"`
	// Period is the heartbeat beat interval (heartbeat only; 0 = default).
	Period sim.Time `json:"period,omitempty"`
}

// Fingerprint is the scenario's canonical one-line form, used in campaign
// logs and coverage bookkeeping. Two scenarios with equal fingerprints run
// identically.
func (s Scenario) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "kind=%s n=%d l=%d", s.Kind, s.N, s.L)
	if s.Kind == "fig8" {
		fmt.Fprintf(&b, " t=%d", s.T)
	}
	fmt.Fprintf(&b, " seed=%d", s.Seed)
	if s.Horizon != 0 {
		fmt.Fprintf(&b, " horizon=%d", s.Horizon)
	}
	if s.Churn.Fraction > 0 {
		fmt.Fprintf(&b, " churn=%.2f:%d:%d:%d:%d", s.Churn.Fraction, s.Churn.Cycles, s.Churn.Start, s.Churn.Down, s.Churn.Stagger)
		if s.Churn.FinalDown {
			b.WriteString(":final")
		}
	}
	for _, c := range s.Crashes {
		fmt.Fprintf(&b, " crash=%d@%d", c.P, c.At)
	}
	if s.Net != "" {
		fmt.Fprintf(&b, " net=%s", s.Net)
	}
	for _, w := range s.Partitions {
		fmt.Fprintf(&b, " part=%d-%d@%d", w.From, w.To, w.Cut)
	}
	if s.Adversary != "" && s.Adversary != "rotate" {
		fmt.Fprintf(&b, " adv=%s", s.Adversary)
	}
	if s.Stabilize != 0 {
		fmt.Fprintf(&b, " stab=%d", s.Stabilize)
	}
	if s.MaxEvents != 0 {
		fmt.Fprintf(&b, " maxev=%d", s.MaxEvents)
	}
	if s.Period != 0 {
		fmt.Fprintf(&b, " period=%d", s.Period)
	}
	return b.String()
}

// Size is the shrinker's metric. It is documented here because shrink
// soundness is stated against it: an accepted reduction must be strictly
// smaller under Size. Population dominates (fewer processes always beats
// anything else), then identifier count, then schedule entries, then
// churn cycles, then non-default knobs, then schedule magnitudes — so the
// greedy shrinker's fixed point is a scenario where no single candidate
// reduction preserves the failure.
func (s Scenario) Size() int {
	size := 1_000_000*s.N + 50_000*s.L
	size += 10_000 * (len(s.Crashes) + len(s.Partitions))
	if s.Churn.Fraction > 0 {
		cycles := s.Churn.Cycles
		if cycles <= 0 {
			cycles = 1
		}
		size += 1_000 * cycles
		size += int(s.Churn.Stagger + s.Churn.Down + s.Churn.Up)
		if s.Churn.FinalDown {
			size += 100
		}
	}
	for _, knob := range []bool{
		s.Net != "",
		s.Adversary != "" && s.Adversary != "rotate",
		s.Stabilize != 0,
		s.Horizon != 0,
		s.MaxEvents != 0,
		s.Period != 0,
	} {
		if knob {
			size += 100
		}
	}
	return size
}

// Clone deep-copies the scenario (the slices are the only shared state).
func (s Scenario) Clone() Scenario {
	c := s
	c.Crashes = append([]CrashEntry(nil), s.Crashes...)
	c.Partitions = append([]sim.PartitionWindow(nil), s.Partitions...)
	return c
}

// crashMap converts the canonical slice to the runners' map form.
func (s Scenario) crashMap() map[sim.PID]sim.Time {
	if len(s.Crashes) == 0 {
		return nil
	}
	m := make(map[sim.PID]sim.Time, len(s.Crashes))
	for _, c := range s.Crashes {
		m[c.P] = c.At
	}
	return m
}

// lastScheduleEvent returns the latest instant of the combined fault and
// partition schedule — the time by which every outage has healed and every
// window has closed.
func (s Scenario) lastScheduleEvent() sim.Time {
	var last sim.Time
	for _, ev := range s.Churn.Events(s.N) {
		if ev.At > last {
			last = ev.At
		}
	}
	for _, c := range s.Crashes {
		if c.At > last {
			last = c.At
		}
	}
	if e := sim.LastWindowEnd(s.Partitions); e > last {
		last = e
	}
	return last
}

// net builds the scenario's network model: the parsed -net spec (or nil
// for the runner's default) wrapped in the partition schedule when one is
// present. A nil return tells the runner to use its own default.
func (s Scenario) net() (sim.Model, error) {
	var base sim.Model
	if s.Net != "" {
		m, err := cliutil.ParseNet(s.Net)
		if err != nil {
			return nil, err
		}
		base = m
	}
	if len(s.Partitions) == 0 {
		return base, nil
	}
	if base == nil {
		base = sim.Async{MaxDelay: 8}
	}
	return sim.Partition{Base: base, Windows: s.Partitions}, nil
}

func (s Scenario) adversary() oracle.Adversary {
	switch s.Adversary {
	case "none":
		return oracle.AdversaryNone
	case "split":
		return oracle.AdversarySplit
	default:
		return oracle.AdversaryRotate
	}
}

// Validate rejects scenarios the runners would reject, with hunt-level
// messages; Run also surfaces runner errors as class "config", so
// Validate exists mainly for corpus hygiene and cmd/hunt -run.
func (s Scenario) Validate() error {
	kindOK := false
	for _, k := range Kinds {
		if s.Kind == k {
			kindOK = true
		}
	}
	if !kindOK {
		return fmt.Errorf("hunt: unknown kind %q (want one of %s)", s.Kind, strings.Join(Kinds, ", "))
	}
	if s.N < 1 {
		return fmt.Errorf("hunt: n=%d, want >= 1", s.N)
	}
	if s.L < 1 || s.L > s.N {
		return fmt.Errorf("hunt: l=%d outside [1, n=%d]", s.L, s.N)
	}
	if !sort.SliceIsSorted(s.Crashes, func(i, j int) bool { return s.Crashes[i].P < s.Crashes[j].P }) {
		return fmt.Errorf("hunt: crash entries not sorted by pid — the scenario has no canonical form")
	}
	for i := 1; i < len(s.Crashes); i++ {
		if s.Crashes[i].P == s.Crashes[i-1].P {
			return fmt.Errorf("hunt: duplicate crash entry for pid %d", s.Crashes[i].P)
		}
	}
	if _, err := s.net(); err != nil {
		return fmt.Errorf("hunt: %w", err)
	}
	if err := cliutil.ValidatePartitionN(s.Partitions, s.N); err != nil {
		return fmt.Errorf("hunt: %w", err)
	}
	if s.Horizon > 0 {
		if err := cliutil.ValidatePartitionHorizon(s.Partitions, s.Horizon); err != nil {
			return fmt.Errorf("hunt: %w", err)
		}
	}
	switch s.Adversary {
	case "", "none", "rotate", "split":
	default:
		return fmt.Errorf("hunt: unknown adversary %q", s.Adversary)
	}
	return nil
}

// lossCapable reports whether the scenario's network model can drop
// in-flight copies between live processes (beyond the drops every churn
// run has, to crashed recipients). persistent means the loss never stops
// (a Lossy wrap, or an Alternating model that never calms); transient
// means it heals (partition windows, pre-GST loss, calming bad windows).
// The distinction matters because the detectors tolerate transient loss
// (they re-broadcast forever) but nothing is promised under loss that
// never ends.
func (s Scenario) lossCapable() (persistent, transient bool) {
	if len(s.Partitions) > 0 {
		transient = true
	}
	m, err := s.net()
	if err != nil {
		return persistent, transient
	}
	for m != nil {
		switch v := m.(type) {
		case sim.Partition:
			if len(v.Windows) > 0 {
				transient = true
			}
			m = v.Base
		case sim.Lossy:
			if v.P > 0 {
				persistent = true
			}
			m = v.Base
		case sim.AsymmetricLinks:
			m = v.Base
		case sim.PartialSync:
			if v.PreLoss > 0 {
				transient = true
			}
			m = nil
		case sim.Alternating:
			if v.BadLoss > 0 {
				if v.CalmAfter > 0 {
					transient = true
				} else {
					persistent = true
				}
			}
			m = nil
		default:
			m = nil
		}
	}
	return persistent, transient
}

// Run executes the scenario through the repository's verified runners and
// classifies the result. It never panics on a malformed scenario: runner
// rejections come back as class "config" outcomes, which the fuzzer
// treats as dead mutants rather than findings.
//
// Liveness failures that the scenario's own loss model explains are
// downgraded to ClassLossLiveness (see that constant's comment): the
// consensus algorithms broadcast each phase message once and are only
// live over reliable links, and nothing stabilizes under loss that never
// ends. Safety failures always keep their class.
func (s Scenario) Run() Outcome {
	o := s.exec()
	persistent, transient := s.lossCapable()
	expected := false
	switch s.Kind {
	case "fig8", "fig9", "fig9-anon":
		// Any injected loss can swallow a once-only phase broadcast.
		expected = o.Class == ClassTermination && (persistent || transient)
	case "ohp":
		// The detector re-broadcasts forever, so it must survive loss
		// that heals; only never-ending loss excuses it.
		expected = o.Class == ClassDetector && persistent
	case "heartbeat":
		// Delivery liveness is judged over the whole run, so both kinds
		// of injected loss can starve a listener without a bug.
		expected = o.Class == ClassLiveness && (persistent || transient)
	}
	if expected {
		o.Class = ClassLossLiveness
		o.Verdict = fmt.Sprintf("FAIL class=%s err=%q", ClassLossLiveness, o.Err)
	}
	return o
}

func (s Scenario) exec() Outcome {
	net, err := s.net()
	if err != nil {
		return configOutcome(err)
	}
	ids := hds.BalancedIDs(s.N, s.L)
	churn := s.Churn.Fraction > 0 // selects the verdict wording only
	switch s.Kind {
	case "fig8":
		res, err := hds.RunChurnFig8(hds.Fig8Experiment{
			IDs: ids, T: s.T, Churn: s.Churn, Crashes: s.crashMap(), Net: net,
			Stabilize: s.Stabilize, Adversary: s.adversary(), Seed: s.Seed,
			Horizon: s.Horizon, MaxEvents: s.MaxEvents,
		})
		return consensusOutcome(res, err, churn)
	case "fig9", "fig9-anon":
		res, err := hds.RunChurnFig9(hds.Fig9Experiment{
			IDs: ids, Churn: s.Churn, Crashes: s.crashMap(), Net: net,
			AnonymousBaseline: s.Kind == "fig9-anon", Stabilize: s.Stabilize, Adversary: s.adversary(),
			Seed: s.Seed, Horizon: s.Horizon, MaxEvents: s.MaxEvents,
		})
		return consensusOutcome(res, err, churn)
	case "ohp":
		res, err := hds.RunOHP(hds.OHPExperiment{
			IDs: ids, Churn: s.Churn, Crashes: s.crashMap(), Net: net, Seed: s.Seed,
			Horizon: s.Horizon, MaxEvents: s.MaxEvents,
		})
		return ohpOutcome(res, err, churn)
	case "heartbeat":
		res, err := hds.RunHeartbeatChurn(hds.HeartbeatExperiment{
			IDs: ids, Churn: s.Churn, Net: net, Period: s.Period, Seed: s.Seed,
			Horizon: s.Horizon, MaxEvents: s.MaxEvents, StreamVerify: true,
		})
		return heartbeatOutcome(res, err)
	default:
		return configOutcome(fmt.Errorf("hunt: unknown kind %q", s.Kind))
	}
}
