package hds

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestRunOHPChurnReconverges(t *testing.T) {
	res, err := RunOHP(OHPExperiment{
		IDs:   BalancedIDs(12, 4),
		Churn: ChurnSpec{Fraction: 0.25, Cycles: 2, Start: 30, Down: 40, Up: 60, Stagger: 7},
		Seed:  1, Horizon: 3000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.EventuallyUp != 12 {
		t.Errorf("EventuallyUp = %d, want 12 (every churner recovers)", res.EventuallyUp)
	}
	if res.Correct >= 12 {
		t.Errorf("Correct = %d, want < 12 (churners are not strictly correct)", res.Correct)
	}
	if res.Recoveries != 6 {
		t.Errorf("Recoveries = %d, want 6 (3 churners × 2 cycles)", res.Recoveries)
	}
	if res.TrustedStabilization < res.LastChange {
		t.Errorf("re-stabilization %d before the last fault-pattern change %d", res.TrustedStabilization, res.LastChange)
	}
	if res.Leader.ID == "" || res.Leader.Multiplicity == 0 {
		t.Errorf("no stabilized leader: %v", res.Leader)
	}
}

func TestRunOHPChurnFinalDown(t *testing.T) {
	// Churners that never come back degrade churn to crash-stop for them:
	// the detector must settle on the strictly smaller eventually-up set.
	res, err := RunOHP(OHPExperiment{
		IDs:   BalancedIDs(8, 4),
		Churn: ChurnSpec{Fraction: 0.25, Cycles: 2, Start: 30, Down: 30, Up: 40, FinalDown: true},
		Seed:  2, Horizon: 3000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.EventuallyUp != 6 || res.Correct != 6 {
		t.Errorf("EventuallyUp/Correct = %d/%d, want 6/6 (final-down churners leave for good)", res.EventuallyUp, res.Correct)
	}
	if res.Recoveries != 2 {
		t.Errorf("Recoveries = %d, want 2 (first cycle only)", res.Recoveries)
	}
}

func TestRunHeartbeatChurnTruthConsistency(t *testing.T) {
	res, err := RunHeartbeatChurn(HeartbeatExperiment{
		IDs:   BalancedIDs(120, 12),
		Churn: ChurnSpec{Fraction: 0.25, Cycles: 2, Start: 10, Down: 20, Up: 25, FinalDown: true},
		Seed:  3, Horizon: 150,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped != sim.StopHorizon {
		t.Errorf("Stopped = %v, want horizon", res.Stopped)
	}
	if res.EventuallyUp != 90 || res.Correct != 90 {
		t.Errorf("EventuallyUp/Correct = %d/%d, want 90/90", res.EventuallyUp, res.Correct)
	}
	if res.Recoveries == 0 || res.Stats.TimerDrops == 0 {
		t.Errorf("scenario exercised no recoveries (%d) or timer drops (%d)", res.Recoveries, res.Stats.TimerDrops)
	}
}

// TestGuardSurfacedInDrivers pins the MaxEvents satellite at driver level:
// a truncated run must be reported, never silently read as complete.
func TestGuardSurfacedInDrivers(t *testing.T) {
	res, err := RunHeartbeatChurn(HeartbeatExperiment{
		IDs:   BalancedIDs(20, 4),
		Churn: ChurnSpec{Fraction: 0.2, Cycles: 1},
		Seed:  4, Horizon: 500, MaxEvents: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped != sim.StopMaxEvents {
		t.Fatalf("Stopped = %v, want max-events", res.Stopped)
	}
	// The verifying runners turn the same condition into an error.
	_, err = RunOHP(OHPExperiment{
		IDs:   BalancedIDs(12, 4),
		Churn: ChurnSpec{Fraction: 0.25, Cycles: 1},
		Seed:  5, Horizon: 3000, MaxEvents: 100,
	})
	if err == nil || !strings.Contains(err.Error(), "MaxEvents") {
		t.Fatalf("RunOHP on a guard-tripped run: err = %v, want MaxEvents error", err)
	}
	// A crash-stop run goes through the same runner, so the guard holds
	// for it too.
	_, err = RunOHP(OHPExperiment{
		IDs:     BalancedIDs(12, 4),
		Crashes: map[PID]Time{3: 40},
		Seed:    5, Horizon: 3000, MaxEvents: 100,
	})
	if err == nil || !strings.Contains(err.Error(), "MaxEvents") {
		t.Fatalf("crash-stop RunOHP on a guard-tripped run: err = %v, want MaxEvents error", err)
	}
}
