package main

import (
	"flag"
	"fmt"
	"log"

	hds "repro"
	"repro/internal/cliutil"
)

func main() {
	detector := flag.String("detector", "ohp", "ohp (Figure 6, HPS) or hsigma (Figure 7, HSS)")
	n := flag.Int("n", 6, "number of processes")
	l := flag.Int("l", 3, "number of distinct identifiers (1 = anonymous, n = unique)")
	gst := flag.Int64("gst", 50, "global stabilization time (ohp)")
	delta := flag.Int64("delta", 3, "post-GST latency bound δ (ohp)")
	seed := flag.Int64("seed", 1, "random seed")
	horizon := flag.Int64("horizon", 6000, "virtual time horizon (ohp)")
	steps := flag.Int("steps", 12, "synchronous steps (hsigma)")
	crashes := flag.String("crashes", "1:30", "crash schedule pid:time[,pid:time...]; empty for none")
	flag.Parse()

	if err := cliutil.ValidateSize(*n, *l); err != nil {
		log.Fatal(err)
	}
	if err := cliutil.ValidateTiming(*gst, *delta); err != nil {
		log.Fatal(err)
	}
	sched, err := cliutil.ParseCrashes(*crashes)
	if err != nil {
		log.Fatal(err)
	}
	ids := hds.BalancedIDs(*n, *l)
	fmt.Printf("identity assignment (n=%d, ℓ=%d): %v\n", *n, *l, ids)

	switch *detector {
	case "ohp":
		res, err := hds.RunOHP(hds.OHPExperiment{
			IDs: ids, Crashes: sched, Net: hds.PartialSync{GST: *gst, Delta: *delta},
			Seed: *seed, Horizon: *horizon,
		})
		if err != nil {
			log.Fatalf("class check failed: %v", err)
		}
		fmt.Println("◇HP̄ and HΩ verified ✔ (Theorem 5, Corollary 2)")
		fmt.Printf("  h_trusted stabilized at:  t=%d\n", res.TrustedStabilization)
		fmt.Printf("  (h_leader, mult) stable:  t=%d → %s\n", res.LeaderStabilization, res.Leader)
		fmt.Printf("  adapted timeouts:         %v\n", res.FinalTimeouts)
		fmt.Printf("  traffic: %d POLLING, %d P_REPLY broadcasts over %d vt\n",
			res.Stats.ByTag["POLLING"], res.Stats.ByTag["P_REPLY"], *horizon)
	case "hsigma":
		crashSteps := make(map[hds.PID]hds.CrashStep, len(sched))
		for p, at := range sched {
			crashSteps[p] = hds.CrashStep{Step: int(at), DeliverProb: 0.5}
		}
		res, err := hds.RunHSigma(hds.HSigmaExperiment{
			IDs: ids, CrashSteps: crashSteps, Steps: *steps, Seed: *seed,
		})
		if err != nil {
			log.Fatalf("class check failed: %v", err)
		}
		fmt.Println("HΣ verified ✔ (Theorem 6: validity, monotonicity, liveness, safety)")
		fmt.Printf("  outputs stabilized at step %d of %d\n", res.StabilizationStep, *steps)
		fmt.Printf("  final |h_quora| per survivor: %v\n", res.QuoraPerProcess)
		fmt.Printf("  traffic: %d IDENT broadcasts\n", res.Stats.ByTag["IDENT"])
	default:
		log.Fatalf("unknown detector %q (want ohp or hsigma)", *detector)
	}
}
