package replay_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	hds "repro"
	"repro/internal/cliutil"
	"repro/internal/fd/oracle"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The differential contract: a live run's verdict report and the report
// Verify re-derives from that run's trace alone must be byte-identical.
// The live side below mirrors cmd/hdsim's experiment construction and
// header format strings independently of BuildScenario, so a drift in the
// scenario-resolution rules, the checker reconstruction, or the stats
// re-aggregation all surface as a byte diff.

// chainNet mirrors the driver's network defaulting chain.
func chainNet(t testing.TB, m *trace.Meta) sim.Model {
	t.Helper()
	var net sim.Model = hds.Async{MaxDelay: 8}
	if m.GST > 0 {
		net = hds.PartialSync{GST: m.GST, Delta: m.Delta}
	}
	if m.Net != "" {
		var err error
		if net, err = cliutil.ParseNet(m.Net); err != nil {
			t.Fatal(err)
		}
	}
	if m.Partitions != "" {
		ws, err := cliutil.ParsePartitions(m.Partitions)
		if err != nil {
			t.Fatal(err)
		}
		net = sim.Partition{Base: net, Windows: ws}
	}
	return net
}

// liveRun executes the scenario the way cmd/hdsim would — same experiment
// construction, same defaulting, same header format — with a retaining
// recorder, and returns the rendered live report plus the recorded events.
func liveRun(t testing.TB, m *trace.Meta) (string, []trace.Event) {
	t.Helper()
	ids := hds.BalancedIDs(m.N, m.L)
	sched, err := cliutil.ParseCrashes(m.Crashes)
	if err != nil {
		t.Fatal(err)
	}
	churn, err := cliutil.ParseChurn(m.Churn)
	if err != nil {
		t.Fatal(err)
	}
	net := chainNet(t, m)
	rec := trace.NewRecorder()
	var buf bytes.Buffer

	switch m.Algo {
	case "ohp":
		netGiven := m.Net != "" || m.GST > 0
		if churn.Fraction > 0 {
			var cnet sim.Model
			if netGiven {
				cnet = net
			}
			effective := cnet
			if effective == nil {
				effective = sim.PartialSync{Delta: 3}
			}
			fmt.Fprintf(&buf, "algo=ohp ids=%v churn=%s net=%s seed=%d\n", ids, churn, effective, m.Seed)
			res, err := hds.RunChurnOHP(hds.ChurnOHPExperiment{
				IDs: ids, Churn: churn, Net: cnet, Seed: m.Seed, Horizon: m.Horizon, Trace: rec,
			})
			if err != nil {
				t.Fatal(err)
			}
			replay.WriteChurnOHPBlock(&buf, m.N, res)
			break
		}
		exp := hds.OHPExperiment{
			IDs: ids, Crashes: sched, GST: m.GST, Delta: m.Delta,
			Seed: m.Seed, Horizon: m.Horizon, Trace: rec,
		}
		var effective sim.Model = sim.PartialSync{GST: m.GST, Delta: m.Delta}
		if netGiven {
			exp.Net = net
			effective = net
		}
		fmt.Fprintf(&buf, "algo=ohp ids=%v crashes=%d net=%s seed=%d\n", ids, len(sched), effective, m.Seed)
		res, err := hds.RunOHP(exp)
		if err != nil {
			t.Fatal(err)
		}
		replay.WriteOHPBlock(&buf, res)

	case "heartbeat":
		fmt.Fprintf(&buf, "algo=heartbeat n=%d ℓ=%d beaters=%s churn=%s net=%s period=%d seed=%d\n",
			m.N, m.L, replay.BeatersLabel(m.Beaters, m.N), churn, net, m.Period, m.Seed)
		res, err := hds.RunHeartbeatChurn(hds.HeartbeatExperiment{
			IDs: ids, Churn: churn, Net: net, Period: m.Period, Seed: m.Seed,
			Horizon: m.Horizon, Beaters: m.Beaters, MaxEvents: m.MaxEvents,
			Trace: rec, StreamVerify: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		// The replay form: the engine-only counters cannot be compared.
		replay.WriteHeartbeatBlock(&buf, m.N, res, false)

	default: // consensus
		adv := map[string]oracle.Adversary{
			"none": oracle.AdversaryNone, "rotate": oracle.AdversaryRotate, "split": oracle.AdversarySplit,
		}[m.Adversary]
		horizon := m.Horizon
		if horizon <= 0 {
			horizon = 3_000_000
		}
		fmt.Fprintf(&buf, "algo=%s n=%d ℓ=%d ids=%v crashes=%s churn=%s seed=%d\n",
			m.Algo, m.N, m.L, ids, m.Crashes, m.Churn, m.Seed)
		var rep hds.Report
		var stats hds.Stats
		var churnRes *hds.ChurnConsensusResult
		switch m.Algo {
		case "fig8":
			src := hds.OracleDetectors
			if m.Detectors == "mp" {
				src = hds.MessagePassingDetectors
			}
			if churn.Fraction > 0 {
				res, err := hds.RunChurnFig8(hds.ChurnFig8Experiment{
					IDs: ids, T: m.T, Churn: churn, Crashes: sched, Net: net,
					Detectors: src, Stabilize: m.Stabilize, Adversary: adv, Seed: m.Seed,
					Horizon: horizon, Trace: rec,
				})
				if err != nil {
					t.Fatal(err)
				}
				churnRes, rep, stats = &res, res.Report, res.Stats
			} else if rep, stats, err = hds.RunFig8(hds.Fig8Experiment{
				IDs: ids, T: m.T, Crashes: sched, Net: net,
				Detectors: src, Stabilize: m.Stabilize, Adversary: adv, Seed: m.Seed,
				Horizon: horizon, Trace: rec,
			}); err != nil {
				t.Fatal(err)
			}
		default: // fig9, fig9-anon
			if churn.Fraction > 0 {
				res, err := hds.RunChurnFig9(hds.ChurnFig9Experiment{
					IDs: ids, Churn: churn, Crashes: sched, Net: net,
					AnonymousBaseline: m.Algo == "fig9-anon",
					Stabilize:         m.Stabilize, Adversary: adv, Seed: m.Seed,
					Horizon: horizon, Trace: rec,
				})
				if err != nil {
					t.Fatal(err)
				}
				churnRes, rep, stats = &res, res.Report, res.Stats
			} else if rep, stats, err = hds.RunFig9(hds.Fig9Experiment{
				IDs: ids, Crashes: sched, Net: net,
				AnonymousBaseline: m.Algo == "fig9-anon",
				Stabilize:         m.Stabilize, Adversary: adv, Seed: m.Seed,
				Horizon: horizon, Trace: rec,
			}); err != nil {
				t.Fatal(err)
			}
		}
		var ci *replay.ChurnInfo
		if churnRes != nil {
			ci = &replay.ChurnInfo{
				EventuallyUp: churnRes.EventuallyUp, Correct: churnRes.Correct,
				Recoveries: churnRes.Recoveries, LastChange: churnRes.LastChange,
				DecideAfterChurn: churnRes.DecideAfterChurn,
			}
		}
		replay.WriteConsensusBlock(&buf, m.N, rep, ci, stats)
	}
	return buf.String(), rec.Events()
}

// grid is every (algorithm, fault pattern, network) shape the driver can
// record, each with the flag-level fingerprint hdsim would stamp on the
// trace. Every detector source, both churn and crash-stop fault inputs,
// and all four network families (async, psync, lossy, partition) appear.
var grid = []struct {
	name string
	meta *trace.Meta
}{
	{"fig8_oracle_async_crashes", &trace.Meta{
		Algo: "fig8", N: 5, L: 2, T: 2, Crashes: "1:40,3:60",
		Seed: 1, Stabilize: 100, Adversary: "rotate", Delta: 3,
	}},
	{"fig8_mp_psync", &trace.Meta{
		Algo: "fig8", N: 5, L: 2, T: 2, Crashes: "0:50", GST: 200, Delta: 5,
		Seed: 2, Stabilize: 100, Adversary: "rotate", Detectors: "mp",
	}},
	{"fig8_oracle_churn_psync", &trace.Meta{
		Algo: "fig8", N: 5, L: 3, T: 2, Churn: "0.4:1", GST: 100, Delta: 4,
		Seed: 3, Stabilize: 100, Adversary: "rotate",
	}},
	{"fig9_partition_split", &trace.Meta{
		Algo: "fig9", N: 4, L: 2, Partitions: "0-120@2",
		Seed: 4, Stabilize: 150, Adversary: "split", Delta: 3,
	}},
	{"fig9anon_async", &trace.Meta{
		Algo: "fig9-anon", N: 4, L: 1,
		Seed: 5, Stabilize: 100, Adversary: "none", Delta: 3,
	}},
	{"fig9_churn_async", &trace.Meta{
		Algo: "fig9", N: 6, L: 3, Churn: "0.34:1",
		Seed: 6, Stabilize: 100, Adversary: "rotate", Delta: 3,
	}},
	{"ohp_crashes_default_net", &trace.Meta{
		Algo: "ohp", N: 5, L: 2, Crashes: "1:100,4:200", Delta: 3, Seed: 7,
	}},
	{"ohp_crashes_psync_net", &trace.Meta{
		Algo: "ohp", N: 5, L: 2, Crashes: "2:150", Net: "psync:50:4", Delta: 3, Seed: 8,
	}},
	{"ohp_churn_default_net", &trace.Meta{
		Algo: "ohp", N: 6, L: 2, Churn: "0.33:1", Delta: 3, Seed: 9,
	}},
	{"ohp_churn_net_override", &trace.Meta{
		Algo: "ohp", N: 5, L: 2, Churn: "0.4:1", Net: "psync:0:2", Delta: 3, Seed: 10,
	}},
	{"heartbeat_churn_lossy_beaters", &trace.Meta{
		Algo: "heartbeat", N: 40, L: 4, Churn: "0.3:1", Net: "lossy:0.2:6",
		Period: 15, Beaters: 5, Seed: 11, Delta: 3,
	}},
}

func TestLiveReplayEquivalence(t *testing.T) {
	for _, tc := range grid {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			live, events := liveRun(t, tc.meta)
			var buf bytes.Buffer
			if err := replay.Verify(tc.meta, trace.NewSliceSource(events), &buf); err != nil {
				t.Fatalf("replay verify: %v\nlive report:\n%s", err, live)
			}
			if got := buf.String(); got != live {
				t.Errorf("replay report differs from live:\n--- live ---\n%s--- replay ---\n%s", live, got)
			}
		})
	}
}

// TestLiveReplayEquivalenceBinary round-trips the live events through the
// v2 binary encoding before verifying: the full product pipeline
// (record → spill → reopen → verify) must preserve the verdict bytes too.
func TestLiveReplayEquivalenceBinary(t *testing.T) {
	m := grid[0].meta
	live, events := liveRun(t, m)

	var file bytes.Buffer
	sink := trace.NewBinarySink(&file)
	sink.SetMeta(m)
	if err := sink.Spill(events); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := trace.NewBinaryReader(bytes.NewReader(file.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := drainAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if r.Meta() == nil || *r.Meta() != *m {
		t.Fatalf("metadata did not survive the binary round trip: %+v", r.Meta())
	}
	var buf bytes.Buffer
	if err := replay.Verify(r.Meta(), trace.NewSliceSource(got), &buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != live {
		t.Errorf("binary replay differs from live:\n--- live ---\n%s--- replay ---\n%s", live, buf.String())
	}
}

func drainAll(src trace.EventSource) ([]trace.Event, error) {
	var out []trace.Event
	err := trace.Drain(src, func(e trace.Event) error {
		out = append(out, e)
		return nil
	})
	return out, err
}

// TestVerifyDetectsTamperedTrace plants violations in healthy traces and
// checks Verify rejects them with the live checkers' own messages.
func TestVerifyDetectsTamperedTrace(t *testing.T) {
	m := grid[0].meta
	_, events := liveRun(t, m)

	t.Run("agreement", func(t *testing.T) {
		tampered := append([]trace.Event(nil), events...)
		flipped := false
		for i, e := range tampered {
			if e.Kind == trace.KindDecide && !flipped {
				tampered[i].Detail = "vBOGUS r=1"
				flipped = true
			}
		}
		if !flipped {
			t.Fatal("trace has no decide events")
		}
		err := replay.Verify(m, trace.NewSliceSource(tampered), new(bytes.Buffer))
		if err == nil {
			t.Fatal("tampered trace verified")
		}
		if !strings.Contains(err.Error(), "check:") {
			t.Fatalf("want a checker violation, got: %v", err)
		}
	})

	t.Run("instability", func(t *testing.T) {
		tampered := append([]trace.Event(nil), events...)
		for _, e := range events {
			if e.Kind == trace.KindDecide {
				dup := e
				dup.Detail = "vOTHER r=9"
				dup.Time++
				tampered = append(tampered, dup)
				break
			}
		}
		err := replay.Verify(m, trace.NewSliceSource(tampered), new(bytes.Buffer))
		if err == nil || !strings.Contains(err.Error(), "changed its decision") {
			t.Fatalf("want a stability violation, got: %v", err)
		}
	})

	t.Run("missing recovery", func(t *testing.T) {
		hb := grid[len(grid)-1].meta
		_, hbEvents := liveRun(t, hb)
		pruned := make([]trace.Event, 0, len(hbEvents))
		dropped := false
		for _, e := range hbEvents {
			if e.Kind == trace.KindRecover && !dropped {
				dropped = true
				continue
			}
			pruned = append(pruned, e)
		}
		if !dropped {
			t.Fatal("heartbeat trace has no recover events")
		}
		err := replay.Verify(hb, trace.NewSliceSource(pruned), new(bytes.Buffer))
		if err == nil || !strings.Contains(err.Error(), "recoveries") {
			t.Fatalf("want a recovery-count violation, got: %v", err)
		}
	})

	// A crafted fingerprint with an impossible system size must be refused
	// at the boundary, not panic inside the identifier assignment.
	for _, bad := range []struct {
		name string
		n, l int
	}{{"N=0", 0, 1}, {"L>N", 3, 5}} {
		t.Run(bad.name, func(t *testing.T) {
			forged := *m
			forged.N, forged.L = bad.n, bad.l
			err := replay.Verify(&forged, trace.NewSliceSource(events), new(bytes.Buffer))
			if err == nil || !strings.Contains(err.Error(), "replay:") {
				t.Fatalf("want a size error, got: %v", err)
			}
		})
	}

	t.Run("no metadata", func(t *testing.T) {
		err := replay.Verify(nil, trace.NewSliceSource(events), new(bytes.Buffer))
		if err == nil || !strings.Contains(err.Error(), "no scenario metadata") {
			t.Fatalf("want the missing-metadata error, got: %v", err)
		}
	})
}

// BenchmarkReplayVerify measures offline re-verification throughput over
// an in-memory heartbeat trace (the population-scale workload shape).
func BenchmarkReplayVerify(b *testing.B) {
	m := &trace.Meta{
		Algo: "heartbeat", N: 500, L: 10, Churn: "0.2:1",
		Period: 15, Beaters: 20, Seed: 1, Delta: 3,
		// The churn schedule's last fault is at t=733; the default horizon
		// (10 periods = 150) would truncate it and the runner refuses.
		Horizon: 1000,
	}
	_, events := liveRun(b, m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := replay.Verify(m, trace.NewSliceSource(events), new(bytes.Buffer)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(events)), "events/op")
}
