package main

import (
	"strings"
	"time"

	"repro/internal/trace"
)

// layerMetricUnits lists every per-layer metric the layer-timed run
// reports, with its unit. Each workload reports all of them; a layer the
// workload does not exercise reads 0 (see README.md).
var layerMetricUnits = []struct{ name, unit string }{
	{"sim.events", "count"},
	{"sim.deliveries", "count"},
	{"sim.drops", "count"},
	{"sim.max_queue", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.alloc_bytes_per_event", "B"},
	{"sim.gc_cycles", "count"},
	{"check.stream_ns_per_event", "ns"},
	{"trace.spill_ns_per_event", "ns"},
	{"trace.spill_batches", "count"},
	{"trace.record_ns_per_event", "ns"},
	{"trace.alloc_bytes_per_event", "B"},
	{"trace.bytes_per_event", "B"},
	{"trace.index_open_ms", "ms"},
	{"trace.decode_ns_per_event", "ns"},
	{"replay.check_ns_per_event", "ns"},
	{"core.broadcasts_per_run", "count"},
	{"core.deliveries_per_run", "count"},
	{"core.rounds_mean", "count"},
	{"core.vt_decide_mean", "vt"},
	{"core.alloc_bytes_per_run", "B"},
	{"hds.fault_pattern_us", "us"},
	{"sweep.busy_ratio", "ratio"},
	{"campaign.overhead_us_per_row", "us"},
	{"bench.timing_overhead_pct", "%"},
}

// layerMetrics returns the per-layer metrics (the dotted names) of
// values, every layer metric the workload did not set at 0, and every
// unit filled in.
func layerMetrics(values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(layerMetricUnits))
	for _, l := range layerMetricUnits {
		out[l.name] = metric{Value: values[l.name], Unit: l.unit}
	}
	for k := range values {
		if _, ok := out[k]; !ok && strings.Contains(k, ".") {
			panic("perfbench: unlisted layer metric " + k)
		}
	}
	return out
}

// medians reduces per-repetition samples to their medians.
func medians(samples map[string][]float64) map[string]float64 {
	out := make(map[string]float64, len(samples))
	for k, xs := range samples {
		out[k] = median(xs)
	}
	return out
}

// timingSink wraps the binary sink and times every call into it: the
// trace layer's encode-and-write share of a traced run, measured from
// outside the layer.
type timingSink struct {
	inner   *trace.BinarySink
	spent   time.Duration
	batches int
}

func (s *timingSink) Spill(batch []trace.Event) error {
	t0 := time.Now()
	err := s.inner.Spill(batch)
	s.spent += time.Since(t0)
	s.batches++
	return err
}

func (s *timingSink) Flush() error {
	t0 := time.Now()
	err := s.inner.Flush()
	s.spent += time.Since(t0)
	return err
}
