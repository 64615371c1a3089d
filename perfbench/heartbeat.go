package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	hds "repro"
	"repro/internal/cliutil"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/trace"
)

// hbScenario is one population-scale heartbeat-churn scenario, stated the
// way cmd/hdsim states it: meta is the fingerprint a binary trace embeds,
// exp the runner input (trace and StreamVerify left to the caller).
type hbScenario struct {
	meta  *trace.Meta
	churn hds.ChurnSpec
	exp   hds.HeartbeatExperiment
}

// newHBScenario builds and validates the scenario the CI large-n smoke
// runs (`hdsim -algo heartbeat -n N -l L -beaters 100 -churn
// 0.05:1:12:20:0 -horizon 60 -max-events 100000000`, period 15), with
// the workload seed as the simulation seed.
func newHBScenario(n, l int, seed int64) (hbScenario, error) {
	meta := &trace.Meta{
		Algo: "heartbeat", N: n, L: l, T: 2, Churn: "0.05:1:12:20:0", Seed: seed,
		Stabilize: 100, Adversary: "rotate", Detectors: "oracle", Delta: 3,
		Horizon: 60, Period: 15, Beaters: 100, MaxEvents: 100_000_000,
	}
	churn, err := cliutil.ParseChurn(meta.Churn)
	if err != nil {
		return hbScenario{}, err
	}
	ids := hds.BalancedIDs(n, l)
	if _, _, err := hds.FaultPattern(ids, churn, nil, hds.Time(meta.Horizon)); err != nil {
		return hbScenario{}, err
	}
	return hbScenario{meta: meta, churn: churn, exp: hds.HeartbeatExperiment{
		IDs: ids, Churn: churn, Net: hds.Async{MaxDelay: 8}, Period: hds.Time(meta.Period),
		Seed: seed, Horizon: hds.Time(meta.Horizon), Beaters: meta.Beaters, MaxEvents: meta.MaxEvents,
	}}, nil
}

// run executes the scenario untraced and returns the result and its wall
// time. A MaxEvents-guard truncation is an error here: RunHeartbeatChurn
// reports a truncated run without one.
func (s hbScenario) run(streamVerify bool, tr *trace.Recorder) (hds.HeartbeatResult, time.Duration, error) {
	e := s.exp
	e.StreamVerify = streamVerify
	e.Trace = tr
	t0 := time.Now()
	res, err := hds.RunHeartbeatChurn(e)
	d := time.Since(t0)
	if err == nil && res.Stopped == sim.StopMaxEvents {
		err = fmt.Errorf("run truncated by the MaxEvents guard after %d events", res.Processed)
	}
	return res, d, err
}

// hbPin is the exact output of a heartbeat scenario at the default seed.
type hbPin struct {
	events, deliveries int
	traceBytes         int64  // pipeline only
	traceDigest        uint64 // pipeline only: the v2 footer's body digest
}

var (
	heartbeat50kPin = hbPin{events: 20_005_395, deliveries: 19_845_733}
	pipeline20kPin  = hbPin{events: 8_002_395, deliveries: 7_938_286, traceBytes: 49_479_672, traceDigest: 8070302510058759261}
)

// runHeartbeat50k is one verified n=50,000 heartbeat-churn run with
// streaming verification and no trace: the engine's lazy fan-out does
// almost all the work.
func runHeartbeat50k(cfg config) (*repetition, error) {
	sc, setupS, err := measureSetup(func() (hbScenario, error) { return newHBScenario(50_000, 200, cfg.seed) })
	if err != nil {
		return nil, err
	}
	r := newRepetition(setupS)
	res, d, err := sc.run(true, nil)
	if err != nil {
		r.outcome("", err)
		return r, nil
	}
	var pinned []string
	if cfg.seed == defaultSeed {
		pinned = []string{
			expect("pinned events", res.Processed, heartbeat50kPin.events),
			expect("pinned deliveries", res.Stats.Delivered, heartbeat50kPin.deliveries),
		}
	}
	r.outcome("", nil, pinned...)
	r.Outputs["events"] = fmt.Sprint(res.Processed)
	r.Outputs["deliveries"] = fmt.Sprint(res.Stats.Delivered)
	r.Values["wall_s"] = d.Seconds()
	r.Values["events_per_s"] = float64(res.Processed) / d.Seconds()
	if !cfg.layers {
		return r, nil
	}

	// The layer-timed repetition adds the same call bracketed by MemStats
	// reads (its wall against the plain call's is the wrappers' overhead)
	// and the StreamVerify-off counterpart.
	var md memDelta
	md.start()
	_, dWrapped, err := sc.run(true, nil)
	md.stop()
	if err != nil {
		return nil, err
	}
	md.start()
	_, dOff, err := sc.run(false, nil)
	alloc, gcs := md.stop()
	if err != nil {
		return nil, err
	}
	ev := float64(res.Processed)
	r.Values["sim.events"] = ev
	r.Values["sim.deliveries"] = float64(res.Stats.Delivered)
	r.Values["sim.drops"] = float64(res.Stats.Dropped)
	r.Values["sim.max_queue"] = float64(res.MaxQueue)
	r.Values["sim.ns_per_event"] = float64(dOff.Nanoseconds()) / ev
	r.Values["sim.alloc_bytes_per_event"] = float64(alloc) / ev
	r.Values["sim.gc_cycles"] = float64(gcs)
	r.Values["check.stream_ns_per_event"] = float64((d - dOff).Nanoseconds()) / ev
	r.Values["bench.timing_overhead_pct"] = 100 * (dWrapped.Seconds() - d.Seconds()) / d.Seconds()
	return r, nil
}

// pipelineSetup is the pipeline's input: the scenario and the path of its
// trace file, in a scratch directory under .bench_build.
type pipelineSetup struct {
	sc   hbScenario
	path string
}

// recordTo runs the scenario traced into a finalized v2 binary trace at
// path and returns the result, the live report text, the record wall time
// and, when timed is set, the timing sink that wrapped the binary sink.
func (p pipelineSetup) recordTo(timed bool) (hds.HeartbeatResult, string, time.Duration, *timingSink, error) {
	t0 := time.Now()
	f, err := os.Create(p.path)
	if err != nil {
		return hds.HeartbeatResult{}, "", 0, nil, err
	}
	bs := trace.NewBinarySink(f)
	bs.SetMeta(p.sc.meta)
	var sink trace.Sink = bs
	var ts *timingSink
	if timed {
		ts = &timingSink{inner: bs}
		sink = ts
	}
	rec := trace.NewSpillRecorder(sink, 0)
	res, _, runErr := p.sc.run(true, rec)
	flushErr := rec.Flush()
	closeErr := f.Close()
	d := time.Since(t0)
	if err := errors.Join(runErr, flushErr, closeErr); err != nil {
		return res, "", d, ts, err
	}
	var live bytes.Buffer
	net := p.sc.exp.Net
	replay.WriteHeartbeatHeader(&live, &replay.Scenario{Meta: p.sc.meta, IDs: p.sc.exp.IDs, Churn: p.sc.churn, Net: net})
	replay.WriteHeartbeatBlock(&live, p.sc.exp.IDs.N(), res, true)
	return res, live.String(), d, ts, nil
}

// verifyFrom re-verifies the trace at path engine-free and returns the
// replay report text, the footer index, and the wall time.
func (p pipelineSetup) verifyFrom() (string, *trace.Index, time.Duration, error) {
	t0 := time.Now()
	f, err := os.Open(p.path)
	if err != nil {
		return "", nil, 0, err
	}
	defer f.Close()
	r, err := trace.NewBinaryReader(f)
	if err != nil {
		return "", nil, 0, err
	}
	var out bytes.Buffer
	err = replay.Verify(r.Meta(), r, &out)
	d := time.Since(t0)
	return out.String(), r.Index(), d, err
}

// sharedLines drops the lines a live report and its replay may differ on
// (the same rule as CI's live ≡ replay diff): the verdict line, which a
// replay cannot re-check engine bookkeeping for, and engine-only counters.
func sharedLines(report string, live bool) string {
	drop := []string{"heartbeat churn verified"}
	if live {
		drop = append(drop, "  events processed:", "  queue high-water:", "  trace:")
	}
	var keep []string
	for _, line := range strings.Split(report, "\n") {
		skip := false
		for _, d := range drop {
			if strings.HasPrefix(line, d) {
				skip = true
			}
		}
		if !skip {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

// runPipeline20k records the CI n=20,000 scenario to a finalized v2
// binary trace, then re-verifies the file engine-free with replay.Verify.
func runPipeline20k(cfg config) (*repetition, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "pipeline-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ps, setupS, err := measureSetup(func() (pipelineSetup, error) {
		sc, err := newHBScenario(20_000, 100, cfg.seed)
		return pipelineSetup{sc: sc, path: filepath.Join(dir, "hb20k.bin")}, err
	})
	if err != nil {
		return nil, err
	}

	r := newRepetition(setupS)
	res, live, dRec, _, err := ps.recordTo(false)
	if err != nil {
		r.outcome("", err)
		return r, nil
	}
	replayed, ix, dRep, err := ps.verifyFrom()
	if err != nil {
		r.outcome("", fmt.Errorf("replay: %w", err))
		return r, nil
	}
	st, err := os.Stat(ps.path)
	if err != nil {
		return nil, err
	}
	checks := []string{
		expect("replay verdict ≡ live report on the shared lines", sharedLines(replayed, false), sharedLines(live, true)),
	}
	if cfg.seed == defaultSeed {
		checks = append(checks,
			expect("pinned events", res.Processed, pipeline20kPin.events),
			expect("pinned deliveries", res.Stats.Delivered, pipeline20kPin.deliveries),
			expect("pinned trace bytes", st.Size(), pipeline20kPin.traceBytes),
			expect("pinned trace footer digest", ix.TotalDigest, pipeline20kPin.traceDigest))
	}
	r.outcome("", nil, checks...)
	r.Outputs["events"] = fmt.Sprint(res.Processed)
	r.Outputs["deliveries"] = fmt.Sprint(res.Stats.Delivered)
	r.Outputs["trace_bytes"] = fmt.Sprint(st.Size())
	r.Outputs["trace_digest"] = fmt.Sprintf("%016x", ix.TotalDigest)
	r.Values["wall_s"] = (dRec + dRep).Seconds()
	r.Values["events_per_s"] = float64(res.Processed) / dRec.Seconds()
	r.Values["record_s"] = dRec.Seconds()
	r.Values["replay_s"] = dRep.Seconds()
	r.Values["trace_mb"] = float64(st.Size()) / 1e6
	if !cfg.layers {
		return r, nil
	}
	r.Values["sim.events"] = float64(res.Processed)
	r.Values["sim.deliveries"] = float64(res.Stats.Delivered)
	r.Values["sim.drops"] = float64(res.Stats.Dropped)
	r.Values["sim.max_queue"] = float64(res.MaxQueue)
	r.Values["trace.bytes_per_event"] = float64(st.Size()) / float64(res.Processed)
	return r, pipelineLayers(ps, res, dRec+dRep, r.Values)
}

// pipelineLayers adds the layer-timed part of a pipeline repetition: the
// record with a timing sink and MemStats bracket, the timed replay, the
// timed index open, a decode-only drain, and the untraced StreamVerify
// on/off counterparts of the same scenario. Per-event figures of the
// record side divide by engine events, those of the read side by trace
// events.
func pipelineLayers(ps pipelineSetup, plain hds.HeartbeatResult, plainWall time.Duration, v map[string]float64) error {
	var md memDelta
	md.start()
	_, _, dRec, ts, err := ps.recordTo(true)
	alloc, _ := md.stop()
	if err != nil {
		return err
	}
	_, _, dRep, err := ps.verifyFrom()
	if err != nil {
		return err
	}

	f, err := os.Open(ps.path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := trace.OpenTraceFile(f, st.Size()); err != nil {
		return err
	}
	dOpen := time.Since(t0)

	t0 = time.Now()
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	br, err := trace.NewBinaryReader(f)
	if err != nil {
		return err
	}
	decoded := 0
	if err := trace.Drain(br, func(trace.Event) error { decoded++; return nil }); err != nil {
		return err
	}
	dDecode := time.Since(t0)

	_, dOn, err := ps.sc.run(true, nil)
	if err != nil {
		return err
	}
	md.start()
	_, dOff, err := ps.sc.run(false, nil)
	simAlloc, gcs := md.stop()
	if err != nil {
		return err
	}

	ev, traced := float64(plain.Processed), float64(decoded)
	v["bench.timing_overhead_pct"] = 100 * ((dRec + dRep).Seconds() - plainWall.Seconds()) / plainWall.Seconds()
	v["trace.spill_ns_per_event"] = float64(ts.spent.Nanoseconds()) / ev
	v["trace.spill_batches"] = float64(ts.batches)
	v["trace.record_ns_per_event"] = float64((dRec - dOn - ts.spent).Nanoseconds()) / ev
	v["trace.alloc_bytes_per_event"] = float64(alloc) / ev
	v["trace.index_open_ms"] = float64(dOpen.Nanoseconds()) / 1e6
	v["trace.decode_ns_per_event"] = float64(dDecode.Nanoseconds()) / traced
	v["replay.check_ns_per_event"] = float64((dRep - dDecode).Nanoseconds()) / traced
	v["sim.ns_per_event"] = float64(dOff.Nanoseconds()) / ev
	v["sim.alloc_bytes_per_event"] = float64(simAlloc) / ev
	v["sim.gc_cycles"] = float64(gcs)
	v["check.stream_ns_per_event"] = float64((dOn - dOff).Nanoseconds()) / ev
	return nil
}
