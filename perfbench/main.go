// Command perfbench is the repository's benchmark: three workloads that
// exercise the simulator engine, the record → re-verify trace pipeline,
// and sweeps of many small verified consensus runs. See README.md for the
// metrics, the reasons behind each workload, and how to run it.
//
// Usage (from the repository root, via run.sh, which builds this module):
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The launcher re-executes itself as one child process per repetition of
// the workload until the --seconds budget is spent, so a child's peak RSS
// (read from its rusage) belongs to that workload alone, and reports
// medians over the repetitions. The last line of standard output is one
// JSON object with the keys correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the workload seed whose exact output counts and digests
// are pinned (see pins in heartbeat.go and consensus.go).
const defaultSeed = 1

// invocationTimeout bounds every workload process of one invocation: the
// whole invocation must end within 180 s even when a run wedges.
const invocationTimeout = 170 * time.Second

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd are the metrics every workload reports without the layer-timed
// run (BENCHMARK.json's end_to_end list); peak_rss_mb comes from rusage.
var endToEnd = []string{"setup_s", "wall_s", "peak_rss_mb", "events_per_s"}

// workloadMetrics are the workload-specific end-to-end figures, printed
// in the human-readable table of the workloads that have them.
var workloadMetrics = []string{"record_s", "replay_s", "trace_mb", "runs_per_s", "run_p50_ms", "run_p99_ms"}

// workers is the number of busy goroutines of a workload process, and its
// GOMAXPROCS. It is 1 even where more CPUs exist: on a small machine that
// shares its host, a second busy CPU measures the neighbours as much as the
// program. On a 2-CPU container, the sweep's sweep-to-sweep spread on two
// workers was nearly twice that on one.
const workers = 1

var units = map[string]string{
	"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "events_per_s": "1/s",
	"record_s": "s", "replay_s": "s", "trace_mb": "MB",
	"runs_per_s": "1/s", "run_p50_ms": "ms", "run_p99_ms": "ms",
}

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	layers  bool // the layer-timed run (--trace 1)
	workers int
}

// workload is one named benchmark input set; run executes one repetition.
type workload struct {
	name string
	run  func(cfg config) (*repetition, error)
}

var workloads = []workload{
	{name: "heartbeat-50k", run: runHeartbeat50k},
	{name: "pipeline-20k", run: runPipeline20k},
	{name: "consensus-sweep", run: runConsensusSweep},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	name := flag.String("workload", "", "workload name: heartbeat-50k, pipeline-20k or consensus-sweep")
	seed := flag.Int64("seed", defaultSeed, "workload seed (inputs are a pure function of it)")
	seconds := flag.Float64("seconds", 20, "measurement budget in seconds (at least one repetition always runs)")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics; 1: the layer-timed run (per-layer metrics)")
	child := flag.Bool("child", false, "run one repetition in this process (internal: the launcher sets it)")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fatal(fmt.Errorf("--trace %d: want 0 or 1", *traceFlag))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("--seconds %g: want a positive budget", *seconds))
	}
	cfg := config{seed: *seed, seconds: *seconds, layers: *traceFlag == 1, workers: workers}

	if *child {
		runtime.GOMAXPROCS(workers)
		rep, err := w.run(cfg)
		if err != nil {
			fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
			fatal(err)
		}
		return
	}

	// Each repetition is its own process: its peak RSS is that
	// repetition's alone, and no repetition inherits another's heap.
	ctx, cancel := context.WithTimeout(context.Background(), invocationTimeout)
	defer cancel()
	budget := time.Duration(*seconds * float64(time.Second))
	start := time.Now()
	var reps []*repetition
	var took []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		rep, kb, err := runChild(ctx, os.Args[1:])
		if err != nil {
			fatal(err)
		}
		took = append(took, time.Since(t0).Seconds())
		rep.Values["peak_rss_mb"] = float64(kb) * 1024 / 1e6
		progress("%s repetition %d: %s", w.name, i, describe(rep.Values))
		reps = append(reps, rep)
		// Start another repetition only if a typical one still fits the
		// budget: a run measures for about --seconds, never a whole
		// repetition longer.
		left := budget - time.Since(start)
		if left.Seconds() < median(took) {
			break
		}
	}
	res, err := aggregate(reps, cfg.layers)
	if err != nil {
		fatal(err)
	}
	printTable(w.name, cfg.layers, res)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct, res.attempted, res.failed, res.metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// result is an invocation's aggregate over its repetitions.
type result struct {
	correct           bool
	attempted, failed int
	reps              int
	metrics           map[string]metric
	// extra holds the workload-specific end-to-end figures, in order.
	extra []string
	notes []string
}

// aggregate reduces repetitions to medians (set-up, timings and peak RSS),
// the run counts, and the cross-repetition output checks: every
// repetition must reproduce the first one's exact outputs.
//
// The run counts are the first repetition's. Every repetition runs the
// same inputs, so summing them would make the counts depend on how many
// repetitions fit the time budget, not on the inputs. A later repetition
// that does not reproduce the first one's outputs or counts adds a
// failed run and makes the invocation incorrect.
func aggregate(reps []*repetition, layers bool) (*result, error) {
	first := reps[0]
	res := &result{reps: len(reps), attempted: first.Attempted, failed: first.Failed}
	var setups []float64
	var bad []string
	samples := map[string][]float64{}
	var runMS []float64
	for i, r := range reps {
		bad = append(bad, r.Mismatches...)
		setups = append(setups, r.SetupS)
		for k, v := range r.Values {
			samples[k] = append(samples[k], v)
		}
		runMS = append(runMS, r.RunMS...)
		diff := []string{
			expect("attempted runs vs the first repetition", r.Attempted, first.Attempted),
			expect("failed runs vs the first repetition", r.Failed, first.Failed),
		}
		for _, k := range sortedKeys(first.Outputs) {
			diff = append(diff, expect(k+" vs the first repetition", r.Outputs[k], first.Outputs[k]))
		}
		diverged := false
		for _, m := range diff {
			if m != "" {
				diverged = true
				bad = append(bad, fmt.Sprintf("repetition %d: %s", i, m))
			}
		}
		if diverged && res.failed < res.attempted {
			res.failed++ // the repetition's outputs count against one of the runs
		}
	}
	res.correct = len(bad) == 0
	med := medians(samples)

	if layers {
		res.metrics = layerMetrics(med)
		res.extra = append(res.extra, row("peak_rss_mb", metric{med["peak_rss_mb"], "MB"},
			"the layer-timed processes, counterpart calls included"))
	} else {
		res.metrics = map[string]metric{}
		for _, k := range endToEnd {
			switch k {
			case "setup_s":
				res.metrics[k] = metric{median(setups), units[k]}
			default:
				v, ok := med[k]
				if !ok {
					return nil, fmt.Errorf("no repetition measured %s (every run failed?)", k)
				}
				res.metrics[k] = metric{v, units[k]}
			}
		}
		for _, k := range workloadMetrics {
			if v, ok := med[k]; ok {
				detail := ""
				if k == "run_p50_ms" || k == "run_p99_ms" {
					detail = fmt.Sprintf("median of %d sweeps; pooled %s", len(reps), tailSummary(runMS, "ms"))
				}
				res.extra = append(res.extra, row(k, metric{v, units[k]}, detail))
			}
		}
	}
	ratio := float64(res.failed) / float64(res.attempted)
	res.extra = append(res.extra, row("fail_ratio", metric{ratio, "ratio"},
		fmt.Sprintf("%d failed of %d attempted, each of %d repetitions", res.failed, res.attempted, len(reps))))

	if len(reps[0].Outputs) > 0 {
		var outs []string
		for _, k := range sortedKeys(reps[0].Outputs) {
			outs = append(outs, k+"="+reps[0].Outputs[k])
		}
		res.notes = append(res.notes, "outputs: "+strings.Join(outs, " "))
	}
	for _, c := range sortedKeys(first.Classes) {
		res.notes = append(res.notes, fmt.Sprintf("runs failed (%s): %d", c, first.Classes[c]))
	}
	const maxShown = 8
	for i, m := range bad {
		if i == maxShown {
			res.notes = append(res.notes, fmt.Sprintf("output-check mismatch: … and %d more", len(bad)-maxShown))
			break
		}
		res.notes = append(res.notes, "output-check mismatch: "+m)
	}
	return res, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func describe(values map[string]float64) string {
	var parts []string
	for _, k := range sortedKeys(values) {
		if units[k] != "" {
			parts = append(parts, fmt.Sprintf("%s=%.4g", k, values[k]))
		}
	}
	return strings.Join(parts, " ")
}

// runChild runs one repetition in a child process, waits for it, and
// returns its record plus its peak resident set size in KiB (the Linux
// rusage unit).
func runChild(ctx context.Context, args []string) (*repetition, int64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, 0, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	cmd := exec.CommandContext(ctx, self, append([]string{"-child"}, args...)...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("workload process: %w", err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, 0, errors.New("workload process: no rusage on this platform")
	}
	var rep repetition
	if err := json.Unmarshal(lastLine(stdout.Bytes()), &rep); err != nil {
		return nil, 0, fmt.Errorf("workload process output: %w", err)
	}
	return &rep, ru.Maxrss, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// row renders one table line: name, value, unit and an optional detail.
func row(name string, m metric, detail string) string {
	line := fmt.Sprintf("  %-30s %14.6g %s", name, m.Value, m.Unit)
	if detail != "" {
		line += "  [" + detail + "]"
	}
	return line
}

// printTable writes the human-readable report: every metric with its
// unit, the workload-specific end-to-end figures, and the check notes.
func printTable(name string, layers bool, res *result) {
	kind := "end-to-end"
	if layers {
		kind = "per-layer (layer-timed run)"
	}
	fmt.Printf("perfbench %s — %s metrics, %d repetitions\n", name, kind, res.reps)
	for _, k := range sortedKeys(res.metrics) {
		fmt.Println(row(k, res.metrics[k], ""))
	}
	for _, line := range res.extra {
		fmt.Println(line)
	}
	for _, n := range res.notes {
		fmt.Printf("  note: %s\n", n)
	}
	fmt.Printf("  output checks: %s\n", map[bool]string{true: "pass", false: "FAIL"}[res.correct])
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
