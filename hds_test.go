package hds

import (
	"testing"

	"repro/internal/fd/oracle"
)

func TestRunFig8Oracle(t *testing.T) {
	rep, stats, err := RunFig8(Fig8Experiment{
		IDs:       BalancedIDs(5, 2),
		T:         2,
		Crashes:   map[PID]Time{1: 30},
		Stabilize: 80,
		Adversary: oracle.AdversaryRotate,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deciders < 4 {
		t.Errorf("deciders = %d, want ≥ 4", rep.Deciders)
	}
	if stats.Broadcasts == 0 || stats.Delivered == 0 {
		t.Errorf("stats empty: %+v", stats)
	}
}

func TestRunFig8EndToEnd(t *testing.T) {
	rep, _, err := RunFig8(Fig8Experiment{
		IDs:       BalancedIDs(5, 2),
		T:         2,
		Crashes:   map[PID]Time{3: 40},
		Net:       PartialSync{GST: 60, Delta: 3},
		Detectors: MessagePassingDetectors,
		Seed:      2,
		Horizon:   2_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Value == "" {
		t.Error("no decision value")
	}
}

func TestRunFig9MinorityCorrect(t *testing.T) {
	rep, _, err := RunFig9(Fig9Experiment{
		IDs:       BalancedIDs(6, 3),
		Crashes:   map[PID]Time{0: 20, 1: 35, 2: 50, 3: 65},
		Stabilize: 120,
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deciders < 2 {
		t.Errorf("deciders = %d, want ≥ 2", rep.Deciders)
	}
}

func TestRunFig9AnonymousBaseline(t *testing.T) {
	if _, _, err := RunFig9(Fig9Experiment{
		IDs:               AnonymousIDs(5),
		AnonymousBaseline: true,
		Crashes:           map[PID]Time{4: 45},
		Stabilize:         100,
		Adversary:         oracle.AdversaryRotate,
		Seed:              4,
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRunOHP(t *testing.T) {
	res, err := RunOHP(OHPExperiment{
		IDs:     BalancedIDs(5, 2),
		Crashes: map[PID]Time{2: 50},
		Net:     PartialSync{GST: 60, Delta: 3},
		Seed:    5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TrustedStabilization < 50 {
		t.Errorf("stabilized at %d before the crash", res.TrustedStabilization)
	}
	if res.Leader.ID == "" {
		t.Error("no leader elected")
	}
	if len(res.FinalTimeouts) != 5 {
		t.Errorf("timeouts = %v", res.FinalTimeouts)
	}
}

func TestRunHSigma(t *testing.T) {
	res, err := RunHSigma(HSigmaExperiment{
		IDs:        BalancedIDs(6, 3),
		CrashSteps: map[PID]CrashStep{1: {Step: 3, DeliverProb: 0.5}},
		Steps:      10,
		Seed:       6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.QuoraPerProcess) != 5 {
		t.Errorf("quora sizes = %v, want 5 survivors", res.QuoraPerProcess)
	}
}

func TestIdentityConstructors(t *testing.T) {
	if got := UniqueIDs(4).DistinctCount(); got != 4 {
		t.Errorf("UniqueIDs distinct = %d", got)
	}
	if got := AnonymousIDs(4).DistinctCount(); got != 1 {
		t.Errorf("AnonymousIDs distinct = %d", got)
	}
	if got := BalancedIDs(6, 3).DistinctCount(); got != 3 {
		t.Errorf("BalancedIDs distinct = %d", got)
	}
	if got := SkewedIDs(5, 3).Mult("giant"); got != 3 {
		t.Errorf("SkewedIDs giant mult = %d", got)
	}
	if got := DomainIDs(map[string]int{"x.org": 2}).N(); got != 2 {
		t.Errorf("DomainIDs N = %d", got)
	}
}

func TestRunnersRejectMalformedExperiments(t *testing.T) {
	tests := []struct {
		name string
		run  func() error
	}{
		{"fig8 t too large", func() error {
			_, _, err := RunFig8(Fig8Experiment{IDs: UniqueIDs(4), T: 2})
			return err
		}},
		{"fig8 crash pid out of range", func() error {
			_, _, err := RunFig8(Fig8Experiment{IDs: UniqueIDs(3), T: 1, Crashes: map[PID]Time{9: 5}})
			return err
		}},
		{"fig8 negative crash time", func() error {
			_, _, err := RunFig8(Fig8Experiment{IDs: UniqueIDs(3), T: 1, Crashes: map[PID]Time{0: -1}})
			return err
		}},
		{"fig8 proposal count mismatch", func() error {
			_, _, err := RunFig8(Fig8Experiment{IDs: UniqueIDs(3), T: 1, Proposals: []Value{"a"}})
			return err
		}},
		{"fig9 empty assignment", func() error {
			_, _, err := RunFig9(Fig9Experiment{})
			return err
		}},
		{"fig9 bottom proposed", func() error {
			_, _, err := RunFig9(Fig9Experiment{IDs: UniqueIDs(2), Proposals: []Value{"a", "\x00⊥"}})
			return err
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.run(); err == nil {
				t.Error("malformed experiment accepted")
			}
		})
	}
}
