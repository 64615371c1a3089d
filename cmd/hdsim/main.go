package main

import (
	"flag"
	"fmt"
	"hash/fnv"
	"log"
	"os"

	hds "repro"
	"repro/internal/campaign"
	"repro/internal/cliutil"
	"repro/internal/fd/oracle"
	"repro/internal/replay"
	"repro/internal/sweep"
	"repro/internal/trace"
)

func main() {
	algo := flag.String("algo", "fig8", "fig8, fig9, fig9-anon, ohp (standalone Figure 6 detector), or heartbeat (population-scale churn workload)")
	n := flag.Int("n", 5, "number of processes")
	l := flag.Int("l", 2, "number of distinct identifiers (1 = anonymous, n = unique)")
	t := flag.Int("t", 2, "crash bound for fig8 (t < n/2)")
	crashes := flag.String("crashes", "", "crash schedule pid:time[,pid:time...]")
	churn := flag.String("churn", "", "crash-recovery churn fraction[:cycles[:down[:up]]], stagger fixed at 7 (all algorithms; consensus runs the rejoin protocol)")
	netSpec := flag.String("net", "", "network model spec (overrides -gst/-delta; see doc comment)")
	partitions := flag.String("partition", "", "partition schedule from-to@cut[,from-to@cut...]: during [from,to) links crossing pid cut are severed")
	seed := flag.Int64("seed", 1, "random seed (first seed of a sweep)")
	seeds := flag.Int("seeds", 1, "number of consecutive seeds to sweep")
	workers := flag.Int("workers", 0, "sweep parallelism (0 = all cores, 1 = serial)")
	stabilize := flag.Int64("stabilize", 100, "oracle detector stabilization time")
	adversary := flag.String("adversary", "rotate", "pre-stabilization oracle behaviour: none, rotate, split")
	detectors := flag.String("detectors", "oracle", "oracle, or mp (fig8 only: the Figure 6 stack)")
	gst := flag.Int64("gst", 0, "network GST (0 = fully asynchronous reliable)")
	delta := flag.Int64("delta", 3, "post-GST latency bound")
	horizon := flag.Int64("horizon", 0, "virtual-time horizon (0 = algorithm default)")
	period := flag.Int64("period", 15, "heartbeat beat interval (heartbeat only)")
	beaters := flag.Int("beaters", 0, "how many processes beat, the rest listen (heartbeat only; 0 = all n)")
	maxEvents := flag.Int("max-events", 0, "override the engine's runaway-guard event cap (0 = engine default)")
	tracePath := flag.String("trace", "", "stream the full event trace to this file (single runs only)")
	replayPath := flag.String("replay", "", "re-verify a recorded run offline from its v2 binary trace (engine-free; every other scenario flag is ignored — the trace's embedded fingerprint wins)")
	traceBuf := flag.Int("trace-buf", 0, "trace spill batch size in events (0 = default 4096)")
	traceFormat := flag.String("trace-format", "text", "trace encoding: text (canonical lines) or binary (compact varint stream, decode with trace.ReadBinary)")
	campaignFlags := cliutil.CampaignFlags(flag.CommandLine)
	flag.Parse()
	sweep.SetDefaultWorkers(*workers)

	if *replayPath != "" {
		runReplay(*replayPath)
		return
	}

	// meta is the scenario fingerprint stamped on binary traces: the flag
	// surface verbatim, so offline replay resolves it through the same
	// parsers and defaulting rules this run is about to use.
	meta := &trace.Meta{
		Algo: *algo, N: *n, L: *l, T: *t,
		Crashes: *crashes, Churn: *churn, Net: *netSpec, Partitions: *partitions,
		GST: *gst, Delta: *delta, Seed: *seed,
		Stabilize: *stabilize, Adversary: *adversary, Detectors: *detectors,
		Horizon: *horizon, Period: *period, Beaters: *beaters, MaxEvents: *maxEvents,
	}

	// The trace is spilled in batches through a trace.Sink, so a huge
	// run's trace streams to disk in constant memory instead of
	// accumulating events in the recorder. -trace-format binary swaps the
	// canonical text sink for the compact varint encoding — roughly an
	// order of magnitude smaller and free of per-event formatting, which
	// is what keeps population-scale traced runs disk- and CPU-viable.
	var traceRec *trace.Recorder
	var traceFile *os.File
	if err := cliutil.ValidateTraceBuf(*traceBuf); err != nil {
		log.Fatal(err)
	}
	if err := cliutil.ValidateTraceFormat(*traceFormat, *tracePath); err != nil {
		log.Fatal(err)
	}
	// BuildScenario resolves the flags exactly as a replay resolves this
	// run's trace fingerprint: validation, network chain, horizons.
	sc, err := replay.BuildScenario(meta)
	if err != nil {
		log.Fatal(err)
	}
	if err := cliutil.ValidateBeaters(*beaters, *n); err != nil {
		log.Fatal(err)
	}
	if *tracePath != "" {
		if *seeds > 1 {
			log.Fatal("-trace applies to single runs: seed sweeps would interleave unrelated traces")
		}
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		traceFile = f
		var sink trace.Sink
		switch *traceFormat {
		case "text":
			sink = trace.NewWriterSink(f)
		case "binary":
			bs := trace.NewBinarySink(f)
			bs.SetMeta(meta)
			sink = bs
		default:
			log.Fatalf("-trace-format %q: want text or binary", *traceFormat)
		}
		traceRec = trace.NewSpillRecorder(sink, *traceBuf)
	}
	if traceRec != nil {
		// Fatal exits must flush too: a failed run is exactly when the
		// trace leading up to the failure matters, and log.Fatal skips
		// defers. Errors are ignored here — the process is already dying
		// with its own message.
		flushTraceOnExit = func() {
			traceRec.Flush()
			traceFile.Close()
		}
	}
	closeTrace := func() {
		if traceRec == nil {
			return
		}
		if err := traceRec.Flush(); err != nil {
			log.Fatalf("trace: %v", err)
		}
		if err := traceFile.Close(); err != nil {
			log.Fatalf("trace: %v", err)
		}
		s := traceRec.Stats()
		fmt.Printf("  trace:            %s (%d deliveries, %d drops)\n", *tracePath, s.Delivered, s.Dropped)
	}

	campaignCfg, err := campaignFlags()
	if err != nil {
		log.Fatal(err)
	}
	if *seeds <= 1 && (campaignCfg.Shards > 1 || campaignCfg.Dir != "" || campaignCfg.Resume) {
		log.Fatal("-shards/-shard/-checkpoint-dir/-resume apply to seed sweeps: set -seeds > 1")
	}

	adv := map[string]oracle.Adversary{
		"none": oracle.AdversaryNone, "rotate": oracle.AdversaryRotate, "split": oracle.AdversarySplit,
	}[*adversary]

	if *algo == "ohp" {
		if *seeds > 1 {
			log.Fatal("-seeds > 1 is not supported with -algo ohp; sweep seeds with the consensus algorithms or via internal/sweep")
		}
		runOHP(sc, traceRec)
		closeTrace()
		return
	}
	if *algo == "heartbeat" {
		if *seeds > 1 {
			log.Fatal("-seeds > 1 is not supported with -algo heartbeat; sweep seeds via internal/sweep")
		}
		if len(sc.Crashes) > 0 {
			log.Fatal("-algo heartbeat takes a -churn spec, not -crashes")
		}
		runHeartbeat(sc, traceRec)
		closeTrace()
		return
	}

	runOne := func(seed int64) (hds.ChurnConsensusResult, error) {
		if *algo == "fig8" {
			src := hds.OracleDetectors
			if *detectors == "mp" {
				src = hds.MessagePassingDetectors
			}
			return hds.RunChurnFig8(hds.Fig8Experiment{
				IDs: sc.IDs, T: *t, Churn: sc.Churn, Crashes: sc.Crashes, Net: sc.Net,
				Detectors: src, Stabilize: *stabilize, Adversary: adv, Seed: seed,
				Horizon: sc.Horizon, MaxEvents: *maxEvents, Trace: traceRec,
			})
		}
		return hds.RunChurnFig9(hds.Fig9Experiment{
			IDs: sc.IDs, Churn: sc.Churn, Crashes: sc.Crashes, Net: sc.Net,
			AnonymousBaseline: *algo == "fig9-anon",
			Stabilize:         *stabilize, Adversary: adv, Seed: seed,
			Horizon: sc.Horizon, MaxEvents: *maxEvents, Trace: traceRec,
		})
	}

	if *seeds > 1 {
		// Everything that defines the scenario goes into the fingerprint:
		// checkpoints are only interchangeable between runs of the exact
		// same scenario, and a digest alone cannot tell scenarios apart.
		scenario := fmt.Sprintf("algo=%s ids=%v t=%d crashes=%s churn=%s net=%s detectors=%s stabilize=%d adversary=%s horizon=%d",
			*algo, sc.IDs, *t, *crashes, *churn, sc.Net, *detectors, *stabilize, *adversary, sc.Horizon)
		runSweep(campaignCfg, *algo, sc.IDs, *crashes, scenario, *seed, *seeds, runOne)
		return
	}

	replay.WriteConsensusHeader(os.Stdout, sc)
	res, err := runOne(*seed)
	if err != nil {
		fatalf("verification failed: %v", err)
	}
	replay.WriteConsensusBlock(os.Stdout, sc, res)
	closeTrace()
}

// flushTraceOnExit, when set, pushes a partial spilled trace to disk
// before a fatal exit; fatalf routes every post-setup failure through it.
var flushTraceOnExit func()

// fatalf is log.Fatalf plus a best-effort trace flush, so -trace files
// keep the events leading up to a verification failure.
func fatalf(format string, args ...any) {
	if flushTraceOnExit != nil {
		flushTraceOnExit()
	}
	log.Fatalf(format, args...)
}

// runOHP runs the standalone Figure 6 detector — crash-stop (verified
// ◇HP̄/HΩ class properties) or, with a churn spec, crash-recovery churn
// (verified against the eventually-up ground truth).
func runOHP(sc *replay.Scenario, traceRec *trace.Recorder) {
	replay.WriteOHPHeader(os.Stdout, sc)
	res, err := hds.RunOHP(hds.OHPExperiment{
		IDs: sc.IDs, Churn: sc.Churn, Crashes: sc.Crashes, Net: sc.Net, Seed: sc.Meta.Seed,
		Horizon: sc.Horizon, MaxEvents: sc.Meta.MaxEvents, Trace: traceRec,
	})
	if err != nil {
		fatalf("verification failed: %v", err)
	}
	replay.WriteOHPBlock(os.Stdout, sc, res)
}

// runHeartbeat runs the population-scale heartbeat churn workload with
// streaming verification on: engine fault bookkeeping is cross-checked
// against the schedule-derived ground truth, per-process delivery
// counters against the recorder's delivery total, and delivery liveness
// through a streaming probe — all in memory independent of the event
// count, which is what lets -n reach 50,000.
func runHeartbeat(sc *replay.Scenario, traceRec *trace.Recorder) {
	m := sc.Meta
	replay.WriteHeartbeatHeader(os.Stdout, sc)
	res, err := hds.RunHeartbeatChurn(hds.HeartbeatExperiment{
		IDs: sc.IDs, Churn: sc.Churn, Net: sc.Net, Period: m.Period, Seed: m.Seed,
		Horizon: sc.Horizon, Beaters: m.Beaters, MaxEvents: m.MaxEvents,
		Trace: traceRec, StreamVerify: true,
	})
	if err != nil {
		fatalf("verification failed: %v", err)
	}
	replay.WriteHeartbeatBlock(os.Stdout, sc.IDs.N(), res, true)
}

// runReplay re-verifies a recorded run from its trace alone: the scenario
// comes from the embedded fingerprint, the checker inputs from the event
// stream, and the verdict prints through the same renderers the live run
// used. Events stream through the reader one at a time, so population-
// scale traces re-verify in constant memory.
func runReplay(path string) {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	r, err := trace.NewBinaryReader(f)
	if err != nil {
		log.Fatalf("replay: %v", err)
	}
	if err := replay.Verify(r.Meta(), r, os.Stdout); err != nil {
		log.Fatalf("verification failed: %v", err)
	}
}

// seedRow is one seed's result in a sweep campaign. It is flat and
// JSON-lossless on purpose: rows round-trip through shard checkpoints, so
// the campaign determinism contract requires exact encode/decode.
type seedRow struct {
	Seed       int64  `json:"seed"`
	Rounds     int    `json:"rounds"`
	Decided    int64  `json:"decided"` // virtual time of the last decision
	Broadcasts int    `json:"broadcasts"`
	Err        string `json:"err,omitempty"`
}

// runSweep executes the scenario across consecutive seeds through the
// campaign layer (sharded/checkpointed/resumable when configured) and
// prints per-seed rows plus min/mean/max aggregates. The campaign id
// carries a hash of the full scenario fingerprint, so checkpoints from a
// run with different flags (-crashes, -net, -gst, -t, …) never verify
// against this campaign on -resume.
func runSweep(cfg campaign.Config, algo string, ids hds.Assignment, crashes, scenario string, first int64, k int, runOne func(int64) (hds.ChurnConsensusResult, error)) {
	fp := fnv.New64a()
	fp.Write([]byte(scenario))
	id := fmt.Sprintf("hdsim-%s-n%d-l%d-seed%d-x%d-%016x", algo, ids.N(), ids.DistinctCount(), first, k, fp.Sum64())
	res, err := campaign.Run(cfg, id, k, func(i int) seedRow {
		s := first + int64(i)
		res, err := runOne(s)
		if err != nil {
			return seedRow{Seed: s, Err: err.Error()}
		}
		return seedRow{Seed: s, Rounds: res.Report.MaxRound, Decided: int64(res.Report.LastDecision), Broadcasts: res.Stats.Broadcasts}
	})
	if err != nil {
		log.Fatal(err)
	}
	if !res.Complete {
		fmt.Printf("campaign %s: shard %d/%d checkpointed in %s (merge with -resume)\n", id, cfg.Shard, cfg.Shards, cfg.Dir)
		return
	}
	fmt.Printf("algo=%s ids=%v crashes=%s seeds=%d..%d workers=%d campaign=%s digest=%.12s\n",
		algo, ids, crashes, first, first+int64(k)-1, sweep.DefaultWorkers(), id, res.Digest)

	var (
		failures                        int
		minD, maxD, sumD                int64
		minRounds, maxRounds, sumRounds int
		sumBcast                        int
	)
	minD, minRounds = -1, -1
	for _, r := range res.Rows {
		if r.Err != "" {
			failures++
			fmt.Printf("  seed=%-5d ✗ %v\n", r.Seed, r.Err)
			continue
		}
		fmt.Printf("  seed=%-5d rounds=%-3d decided=t=%-8d broadcasts=%d\n",
			r.Seed, r.Rounds, r.Decided, r.Broadcasts)
		if minD < 0 || r.Decided < minD {
			minD = r.Decided
		}
		if r.Decided > maxD {
			maxD = r.Decided
		}
		sumD += r.Decided
		if minRounds < 0 || r.Rounds < minRounds {
			minRounds = r.Rounds
		}
		if r.Rounds > maxRounds {
			maxRounds = r.Rounds
		}
		sumRounds += r.Rounds
		sumBcast += r.Broadcasts
	}
	okRuns := k - failures
	if okRuns == 0 {
		log.Fatalf("all %d runs failed verification", k)
	}
	fmt.Printf("verified %d/%d runs ✔\n", okRuns, k)
	fmt.Printf("  decided at (vt): min=%d mean=%.1f max=%d\n", minD, float64(sumD)/float64(okRuns), maxD)
	fmt.Printf("  rounds:          min=%d mean=%.1f max=%d\n", minRounds, float64(sumRounds)/float64(okRuns), maxRounds)
	fmt.Printf("  broadcasts:      mean=%.1f\n", float64(sumBcast)/float64(okRuns))
	if failures > 0 {
		log.Fatalf("%d/%d runs failed verification", failures, k)
	}
}
