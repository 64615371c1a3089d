package hds

import (
	"strings"
	"testing"

	"repro/internal/fd/oracle"
)

func TestRunChurnFig8Oracle(t *testing.T) {
	res, err := RunChurnFig8(Fig8Experiment{
		IDs:       BalancedIDs(5, 2),
		T:         2,
		Churn:     ChurnSpec{Fraction: 0.3, Cycles: 1, Start: 2, Down: 60},
		Net:       Async{MaxDelay: 8},
		Adversary: oracle.AdversaryRotate,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.EventuallyUp != 5 {
		t.Errorf("EventuallyUp = %d, want 5 (every churner recovers)", res.EventuallyUp)
	}
	if res.Correct >= 5 {
		t.Errorf("Correct = %d, want < 5 (churners are not strictly correct)", res.Correct)
	}
	if res.Recoveries == 0 {
		t.Error("scenario exercised no recoveries")
	}
	if res.Report.Deciders < res.EventuallyUp {
		t.Errorf("deciders = %d, want ≥ %d (every eventually-up process decides)", res.Report.Deciders, res.EventuallyUp)
	}
	if res.Report.Value == "" {
		t.Error("no decision value")
	}
}

func TestRunChurnFig8MessagePassing(t *testing.T) {
	res, err := RunChurnFig8(Fig8Experiment{
		IDs:       BalancedIDs(5, 2),
		T:         2,
		Churn:     ChurnSpec{Fraction: 0.3, Cycles: 2, Start: 3, Down: 40, Up: 50, Stagger: 7},
		Net:       PartialSync{Delta: 3},
		Detectors: MessagePassingDetectors,
		Seed:      2,
		Horizon:   2_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Deciders < 5 {
		t.Errorf("deciders = %d, want 5 (full stack, every process eventually up)", res.Report.Deciders)
	}
	if res.Recoveries == 0 {
		t.Error("scenario exercised no recoveries")
	}
}

func TestRunChurnFig9(t *testing.T) {
	res, err := RunChurnFig9(Fig9Experiment{
		IDs:       BalancedIDs(6, 3),
		Churn:     ChurnSpec{Fraction: 0.34, Cycles: 1, Start: 2, Down: 60, Stagger: 7},
		Net:       Async{MaxDelay: 8},
		Adversary: oracle.AdversaryRotate,
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.EventuallyUp != 6 || res.Report.Deciders < 6 {
		t.Errorf("EventuallyUp/deciders = %d/%d, want 6/6", res.EventuallyUp, res.Report.Deciders)
	}
	if res.Recoveries != 2 {
		t.Errorf("Recoveries = %d, want 2", res.Recoveries)
	}
}

func TestRunChurnFig9FinalDown(t *testing.T) {
	// Final-down churners degrade churn to crash-stop for them: Termination
	// quantifies over the strictly smaller eventually-up set, which must
	// still decide.
	res, err := RunChurnFig9(Fig9Experiment{
		IDs:   BalancedIDs(6, 3),
		Churn: ChurnSpec{Fraction: 0.34, Cycles: 2, Start: 25, Down: 30, Up: 40, FinalDown: true},
		Seed:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.EventuallyUp != 4 || res.Correct != 4 {
		t.Errorf("EventuallyUp/Correct = %d/%d, want 4/4", res.EventuallyUp, res.Correct)
	}
	if res.Report.Deciders < 4 {
		t.Errorf("deciders = %d, want ≥ 4", res.Report.Deciders)
	}
}

func TestRunChurnFig9Anonymous(t *testing.T) {
	if _, err := RunChurnFig9(Fig9Experiment{
		IDs:               AnonymousIDs(5),
		AnonymousBaseline: true,
		Churn:             ChurnSpec{Fraction: 0.2, Cycles: 1, Start: 25, Down: 35},
		Seed:              5,
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRunChurnFig8WithExtraCrashes(t *testing.T) {
	// Churn plus a disjoint permanent crash: t=2 budget covers one churner
	// and one crash-stop process; the crash-stop one is exempt from
	// Termination, the churner is not.
	res, err := RunChurnFig8(Fig8Experiment{
		IDs:     BalancedIDs(5, 2),
		T:       2,
		Churn:   ChurnSpec{Fraction: 0.2, Cycles: 1, Start: 25, Down: 40},
		Crashes: map[PID]Time{3: 35},
		Seed:    6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.EventuallyUp != 4 {
		t.Errorf("EventuallyUp = %d, want 4", res.EventuallyUp)
	}
}

func TestChurnConsensusRunnersRejectMalformedExperiments(t *testing.T) {
	tests := []struct {
		name string
		want string
		run  func() error
	}{
		{"fig8 horizon truncates churn", "horizon", func() error {
			_, err := RunChurnFig8(Fig8Experiment{
				IDs: BalancedIDs(5, 2), T: 2,
				Churn:   ChurnSpec{Fraction: 0.2, Cycles: 1, Start: 25, Down: 40},
				Horizon: 50,
			})
			return err
		}},
		{"fig8 permanent crash past horizon", "horizon", func() error {
			// The horizon check covers the merged schedule: a Crashes entry
			// the run would never execute must be rejected, not silently
			// folded into the ground truth as a crash that "happened".
			_, err := RunChurnFig8(Fig8Experiment{
				IDs: BalancedIDs(5, 2), T: 2,
				Churn:   ChurnSpec{Fraction: 0.2, Cycles: 1, Start: 25, Down: 40},
				Crashes: map[PID]Time{3: 2_000_000}, // default horizon is 1e6
			})
			return err
		}},
		{"fig8 churn and crashes overlap", "both", func() error {
			_, err := RunChurnFig8(Fig8Experiment{
				IDs: BalancedIDs(5, 2), T: 2,
				Churn:   ChurnSpec{Fraction: 0.2, Cycles: 1, Start: 25, Down: 40},
				Crashes: map[PID]Time{0: 30}, // PID 0 is the churner
			})
			return err
		}},
		{"fig8 churners exceed t budget", "budget", func() error {
			_, err := RunChurnFig8(Fig8Experiment{
				IDs: BalancedIDs(5, 2), T: 1,
				Churn: ChurnSpec{Fraction: 0.5, Cycles: 1, Start: 25, Down: 40},
			})
			return err
		}},
		{"fig8 t out of range", "t <", func() error {
			_, err := RunChurnFig8(Fig8Experiment{
				IDs: BalancedIDs(4, 2), T: 2,
				Churn: ChurnSpec{Fraction: 0.25, Cycles: 1, Start: 25, Down: 40},
			})
			return err
		}},
		{"fig9 horizon truncates churn", "horizon", func() error {
			_, err := RunChurnFig9(Fig9Experiment{
				IDs:     BalancedIDs(5, 2),
				Churn:   ChurnSpec{Fraction: 0.2, Cycles: 2, Start: 25, Down: 40, Up: 50},
				Horizon: 100,
			})
			return err
		}},
		{"fig9 nobody eventually up", "eventually up", func() error {
			_, err := RunChurnFig9(Fig9Experiment{
				IDs:   AnonymousIDs(3),
				Churn: ChurnSpec{Fraction: 1, Cycles: 1, Start: 25, Down: 30, FinalDown: true},
			})
			return err
		}},
		// Crash-stop runs share the runner, so they gain its checks: the
		// MaxEvents guard and the horizon check over the crash schedule.
		{"fig8 crash-stop guard-tripped", "MaxEvents", func() error {
			_, _, err := RunFig8(Fig8Experiment{
				IDs: BalancedIDs(5, 2), T: 2,
				Crashes:   map[PID]Time{3: 40},
				MaxEvents: 20,
			})
			return err
		}},
		{"fig8 crash-stop crash at horizon", "horizon", func() error {
			// The run stops before this crash fires, so a ground truth
			// that counted it would judge a fault pattern the run never had.
			_, _, err := RunFig8(Fig8Experiment{
				IDs: BalancedIDs(5, 2), T: 2,
				Crashes: map[PID]Time{3: 500},
				Horizon: 500,
			})
			return err
		}},
		{"fig9 crash-stop crash past horizon", "horizon", func() error {
			_, _, err := RunFig9(Fig9Experiment{
				IDs:     BalancedIDs(5, 2),
				Crashes: map[PID]Time{1: 2_000_000}, // default horizon is 1e6
			})
			return err
		}},
		{"fig9 invalid assignment", "identifier", func() error {
			_, err := RunChurnFig9(Fig9Experiment{
				IDs:   Assignment{"a", ""},
				Churn: ChurnSpec{Fraction: 0.5, Cycles: 1, Start: 25, Down: 30},
			})
			return err
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.run()
			if err == nil {
				t.Fatal("malformed experiment accepted")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("err = %v, want mention of %q", err, tt.want)
			}
		})
	}
}

// TestChurnDetectorRunnersValidateInputs pins the satellite fix: the
// detector-layer churn runners validate their inputs like the consensus
// runners always did, instead of silently producing meaningless numbers.
func TestChurnDetectorRunnersValidateInputs(t *testing.T) {
	if _, err := RunOHP(OHPExperiment{
		IDs:   Assignment{"a", ""},
		Churn: ChurnSpec{Fraction: 0.5, Cycles: 1},
	}); err == nil || !strings.Contains(err.Error(), "identifier") {
		t.Errorf("invalid assignment accepted: %v", err)
	}
	if _, err := RunOHP(OHPExperiment{
		IDs:     BalancedIDs(8, 4),
		Churn:   ChurnSpec{Fraction: 0.25, Cycles: 2, Start: 30, Down: 40, Up: 60},
		Horizon: 100, // last event at 170
	}); err == nil || !strings.Contains(err.Error(), "horizon") {
		t.Errorf("schedule-truncating horizon accepted: %v", err)
	}
	if _, err := RunOHP(OHPExperiment{
		IDs:     BalancedIDs(5, 2),
		Crashes: map[PID]Time{1: 6000}, // default horizon is 5000
	}); err == nil || !strings.Contains(err.Error(), "horizon") {
		t.Errorf("crash-stop crash past the horizon accepted: %v", err)
	}
	if _, err := RunHeartbeatChurn(HeartbeatExperiment{
		IDs:   Assignment{},
		Churn: ChurnSpec{Fraction: 0.5},
	}); err == nil || !strings.Contains(err.Error(), "no processes") {
		t.Errorf("empty assignment accepted: %v", err)
	}
	if _, err := RunHeartbeatChurn(HeartbeatExperiment{
		IDs:     BalancedIDs(10, 2),
		Churn:   ChurnSpec{Fraction: 0.2, Cycles: 1, Start: 50, Down: 30},
		Horizon: 60, // recovery at 80 is past the horizon
	}); err == nil || !strings.Contains(err.Error(), "horizon") {
		t.Errorf("schedule-truncating horizon accepted: %v", err)
	}
}
