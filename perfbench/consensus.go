package main

import (
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strconv"
	"time"

	hds "repro"
	"repro/internal/campaign"
	"repro/internal/fd/oracle"
	"repro/internal/sim"
)

const (
	// sweepRuns is the number of consensus runs in one sweep: enough that
	// the per-run p99 has 40 samples beyond it.
	sweepRuns = 4000
	// consensusHorizon is cmd/hdsim's consensus default.
	consensusHorizon = 3_000_000
	// churnRunEventCap is the per-run MaxEvents guard of churn runs, about
	// 2.3× the largest healthy run seen (26,006 events over 24,000 runs of
	// seeds 1–6). A run that never decides is cut here and fails with the
	// guard's error instead of spinning to the engine's 5M default. The
	// crash-stop runners have no MaxEvents field and keep that default.
	churnRunEventCap = 60_000
)

// consCase is one consensus run of the sweep.
type consCase struct {
	// Algo is fig8 (oracle HΩ), fig8-mp (the Figure 6 detector stack over
	// PartialSync{GST: 50, Δ: 3}), fig9 or fig9-anon.
	Algo    string
	N, L, T int
	// Churn is zero for crash-stop runs, which take Crashes instead.
	Churn   hds.ChurnSpec
	Crashes map[hds.PID]hds.Time
	Seed    int64
	ids     hds.Assignment
}

// family names the case's algorithm stack and fault model.
func (c consCase) family() string {
	if c.Churn.Fraction > 0 {
		return c.Algo + " churn"
	}
	return c.Algo + " crash-stop"
}

func (c consCase) String() string {
	faults := fmt.Sprintf("churn %.1f:%d", c.Churn.Fraction, c.Churn.Cycles)
	if c.Churn.Fraction == 0 {
		faults = fmt.Sprintf("%d crashes", len(c.Crashes))
	}
	return fmt.Sprintf("%s n=%d l=%d t=%d %s seed=%d", c.Algo, c.N, c.L, c.T, faults, c.Seed)
}

// consensusFamilies are the algorithm/detector stacks of the mix.
var consensusFamilies = []string{"fig8", "fig8-mp", "fig9", "fig9-anon"}

// genCases draws the sweep's mix from the workload seed: every family, n
// in 5..15, any ℓ in 1..n, t in the admissible range, three runs in four
// under churn (fraction 0.1–0.3, 1–2 cycles, cmd/hdsim's stagger 7) and
// the rest crash-stop with up to t crashes in [1, 80]. Each case is
// validated through hds.FaultPattern, as the runners do.
func genCases(seed int64, count int) ([]consCase, error) {
	rng := rand.New(rand.NewSource(seed))
	cases := make([]consCase, count)
	for i := range cases {
		c := consCase{Algo: consensusFamilies[rng.Intn(len(consensusFamilies))], N: 5 + rng.Intn(11)}
		c.L = 1 + rng.Intn(c.N)
		c.ids = hds.BalancedIDs(c.N, c.L)
		maxT := (c.N - 1) / 2
		if rng.Intn(4) > 0 {
			c.Churn = hds.ChurnSpec{Fraction: float64(1+rng.Intn(3)) / 10, Cycles: 1 + rng.Intn(2), Stagger: 7}
			_, truth, err := hds.FaultPattern(c.ids, c.Churn, nil, consensusHorizon)
			if err != nil {
				return nil, fmt.Errorf("case %d (%v): %w", i, c, err)
			}
			churners := len(truth.CrashTimes)
			if churners > maxT {
				return nil, fmt.Errorf("case %d (%v): %d churners exceed t < n/2", i, c, churners)
			}
			c.T = churners + rng.Intn(maxT-churners+1)
		} else {
			c.T = 1 + rng.Intn(maxT)
			k := rng.Intn(c.T + 1)
			c.Crashes = make(map[hds.PID]hds.Time, k)
			for _, p := range rng.Perm(c.N)[:k] {
				c.Crashes[hds.PID(p)] = 1 + rng.Int63n(80)
			}
			if _, _, err := hds.FaultPattern(c.ids, c.Churn, c.Crashes, consensusHorizon); err != nil {
				return nil, fmt.Errorf("case %d (%v): %w", i, c, err)
			}
		}
		c.Seed = 1 + rng.Int63n(1<<30)
		cases[i] = c
	}
	return cases, nil
}

// consRow is one run's outcome, the campaign row. Err is the runner's
// verification error; the counts are those of verified runs.
type consRow struct {
	Rounds     int    `json:"r,omitempty"`
	Decided    int64  `json:"d,omitempty"`
	Broadcasts int    `json:"b,omitempty"`
	Delivered  int    `json:"dl,omitempty"`
	Dropped    int    `json:"dr,omitempty"`
	Events     int    `json:"e,omitempty"`
	Err        string `json:"err,omitempty"`
}

// run executes the case through its runner, as cmd/hdsim would for the
// same flags (oracle stabilization 100, rotating adversary).
func (c consCase) run() consRow {
	var (
		rep   hds.Report
		stats hds.Stats
		err   error
	)
	var net sim.Model = hds.Async{MaxDelay: 8}
	det := hds.OracleDetectors
	if c.Algo == "fig8-mp" {
		net = hds.PartialSync{GST: 50, Delta: 3}
		det = hds.MessagePassingDetectors
	}
	const stabilize, adv = 100, oracle.AdversaryRotate
	anon := c.Algo == "fig9-anon"
	switch {
	case (c.Algo == "fig8" || c.Algo == "fig8-mp") && c.Churn.Fraction > 0:
		var res hds.ChurnConsensusResult
		res, err = hds.RunChurnFig8(hds.ChurnFig8Experiment{
			IDs: c.ids, T: c.T, Churn: c.Churn, Net: net, Detectors: det, Stabilize: stabilize,
			Adversary: adv, Seed: c.Seed, Horizon: consensusHorizon, MaxEvents: churnRunEventCap,
		})
		rep, stats = res.Report, res.Stats
	case c.Algo == "fig8" || c.Algo == "fig8-mp":
		rep, stats, err = hds.RunFig8(hds.Fig8Experiment{
			IDs: c.ids, T: c.T, Crashes: c.Crashes, Net: net, Detectors: det, Stabilize: stabilize,
			Adversary: adv, Seed: c.Seed, Horizon: consensusHorizon,
		})
	case c.Churn.Fraction > 0:
		var res hds.ChurnConsensusResult
		res, err = hds.RunChurnFig9(hds.ChurnFig9Experiment{
			IDs: c.ids, Churn: c.Churn, Net: net, AnonymousBaseline: anon, Stabilize: stabilize,
			Adversary: adv, Seed: c.Seed, Horizon: consensusHorizon, MaxEvents: churnRunEventCap,
		})
		rep, stats = res.Report, res.Stats
	default:
		rep, stats, err = hds.RunFig9(hds.Fig9Experiment{
			IDs: c.ids, Crashes: c.Crashes, Net: net, AnonymousBaseline: anon, Stabilize: stabilize,
			Adversary: adv, Seed: c.Seed, Horizon: consensusHorizon,
		})
	}
	if err != nil {
		return consRow{Err: err.Error()}
	}
	return consRow{
		Rounds: rep.MaxRound, Decided: int64(rep.LastDecision), Broadcasts: stats.Broadcasts,
		Delivered: stats.Delivered, Dropped: stats.Dropped,
		// The engine-popped events: message copies, timers, faults.
		Events: stats.Delivered + stats.Dropped + stats.Timers + stats.TimerDrops + stats.Crashes + stats.Recoveries,
	}
}

// guardMessage matches the runners' MaxEvents-guard error, which states
// how many events the truncated run processed.
var guardMessage = regexp.MustCompile(`MaxEvents guard after (\d+) events`)

// guardEvents returns the events a run truncated by the MaxEvents guard
// processed, read from its error, and 0 for any other error. The engine
// did that work inside the campaign's wall time, so events_per_s counts
// it: the sweep's throughput then does not depend on how many of a
// seed's runs hit the guard.
func guardEvents(msg string) int64 {
	m := guardMessage.FindStringSubmatch(msg)
	if m == nil {
		return 0
	}
	n, err := strconv.ParseInt(m[1], 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// consensusPin is the exact outcome of the sweep at the default seed.
var consensusPin = struct {
	digest         string
	events, failed int
}{digest: "07645b0c3babe30bf9638d51e018b77a4525e90c7d5226b6f623c1460b791f8f", events: 8_171_079, failed: 19}

// sweepOutcome is one timed sweep.
type sweepOutcome struct {
	res  campaign.Result[consRow]
	wall time.Duration
	// runMS is each run's host time in milliseconds, in input order.
	runMS []float64
}

// sweep runs every case through campaign.Run (in memory, cfg.workers
// workers) and times each run from outside.
func sweep(cases []consCase, id string, workers int) (sweepOutcome, error) {
	out := sweepOutcome{runMS: make([]float64, len(cases))}
	t0 := time.Now()
	res, err := campaign.Run(campaign.Config{Workers: workers}, id, len(cases), func(i int) consRow {
		s := time.Now()
		row := cases[i].run()
		out.runMS[i] = float64(time.Since(s).Nanoseconds()) / 1e6
		return row
	})
	out.wall = time.Since(t0)
	out.res = res
	return out, err
}

// runConsensusSweep runs sweepRuns short verified consensus runs, mixed
// over every algorithm family, as one in-memory campaign.
func runConsensusSweep(cfg config) (*repetition, error) {
	cases, setupS, err := measureSetup(func() ([]consCase, error) { return genCases(cfg.seed, sweepRuns) })
	if err != nil {
		return nil, err
	}
	id := fmt.Sprintf("perfbench-consensus-sweep-seed%d-x%d", cfg.seed, len(cases))
	s, err := sweep(cases, id, cfg.workers)
	if err != nil {
		return nil, err // a campaign error is a harness failure, not a run's
	}
	rows := s.res.Rows
	var (
		events, failed, delivered, dropped, bcast, rounds int
		truncated, vt                                     int64
	)
	for _, row := range rows {
		if row.Err != "" {
			failed++
			truncated += guardEvents(row.Err)
			continue
		}
		events += row.Events
		delivered += row.Delivered
		dropped += row.Dropped
		bcast += row.Broadcasts
		rounds += row.Rounds
		vt += row.Decided
	}
	checks := []string{
		expect("campaign complete", s.res.Complete, true),
		expect("rows", len(rows), len(cases)),
	}
	if cfg.seed == defaultSeed {
		checks = append(checks,
			expect("pinned campaign digest", s.res.Digest, consensusPin.digest),
			expect("pinned events", events, consensusPin.events),
			expect("pinned failed runs", failed, consensusPin.failed))
	}
	r := newRepetition(setupS)
	for i, row := range rows {
		var runErr error
		if row.Err != "" {
			runErr = errors.New(row.Err)
		}
		// Campaign-level checks count against the sweep's last run.
		if i == len(rows)-1 {
			r.outcome(cases[i].family()+": ", runErr, checks...)
		} else {
			r.outcome(cases[i].family()+": ", runErr)
		}
	}
	r.Outputs["campaign_digest"] = s.res.Digest
	r.Outputs["events"] = fmt.Sprint(events)
	r.Outputs["failed_runs"] = fmt.Sprint(failed)
	r.RunMS = s.runMS
	sorted := append([]float64(nil), s.runMS...)
	sort.Float64s(sorted)
	wall := s.wall.Seconds()
	r.Values["wall_s"] = wall
	r.Values["events_per_s"] = (float64(events) + float64(truncated)) / wall
	r.Values["runs_per_s"] = float64(len(rows)) / wall
	r.Values["run_p50_ms"] = percentile(sorted, 50)
	r.Values["run_p99_ms"] = percentile(sorted, 99)
	if !cfg.layers || failed == len(rows) {
		return r, nil // per-run layer figures need at least one verified run
	}

	v := r.Values
	ok := float64(len(rows) - failed)
	v["sim.events"] = float64(events)
	v["sim.deliveries"] = float64(delivered)
	v["sim.drops"] = float64(dropped)
	v["core.broadcasts_per_run"] = float64(bcast) / ok
	v["core.deliveries_per_run"] = float64(delivered) / ok
	v["core.rounds_mean"] = float64(rounds) / ok
	v["core.vt_decide_mean"] = float64(vt) / ok
	return r, consensusLayers(cases, id, cfg.workers, s.wall, v)
}

// consensusLayers adds the layer-timed part of a sweep repetition: the
// same campaign bracketed by MemStats reads, and a pass that times
// hds.FaultPattern per case.
func consensusLayers(cases []consCase, id string, workers int, plainWall time.Duration, v map[string]float64) error {
	var md memDelta
	md.start()
	s, err := sweep(cases, id, workers)
	alloc, gcs := md.stop()
	if err != nil {
		return err
	}
	busy, events := 0.0, 0
	for i, row := range s.res.Rows {
		busy += s.runMS[i] * 1e6
		events += row.Events
	}
	wallNS := float64(s.wall.Nanoseconds())
	runs := float64(len(cases))
	v["bench.timing_overhead_pct"] = 100 * (s.wall.Seconds() - plainWall.Seconds()) / plainWall.Seconds()
	v["sim.ns_per_event"] = busy / float64(events)
	v["sim.alloc_bytes_per_event"] = float64(alloc) / float64(events)
	v["sim.gc_cycles"] = float64(gcs)
	v["core.alloc_bytes_per_run"] = float64(alloc) / runs
	v["sweep.busy_ratio"] = busy / (float64(workers) * wallNS)
	v["campaign.overhead_us_per_row"] = (float64(workers)*wallNS - busy) / runs / 1e3

	t0 := time.Now()
	for _, c := range cases {
		if _, _, err := hds.FaultPattern(c.ids, c.Churn, c.Crashes, consensusHorizon); err != nil {
			return err
		}
	}
	v["hds.fault_pattern_us"] = float64(time.Since(t0).Nanoseconds()) / runs / 1e3
	return nil
}
