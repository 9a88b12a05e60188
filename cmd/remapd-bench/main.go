// Command remapd-bench is the repository's end-to-end benchmark. It runs
// one workload per invocation, checks that the program's outputs are
// correct, and prints one JSON result object as the last line of standard
// output:
//
//	remapd-bench --workload train-grid --seed 1 --seconds 20 --trace 0
//
// Workloads (see README.md in this directory for why each exists, every
// metric's unit and domain, and the predictions each should confirm):
//
//	train-grid  the bench-scale Fig. 6 policy grid through experiments.Fig6
//	serve-wear  seeded traffic driven through serve.Server on a wearing
//	            2-chip Remap-D pool
//	serve-http  open-loop Poisson arrivals, then a closed loop, against
//	            serve.Front's POST /classify on loopback
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// the same workload runs once untraced and once with forwarding wrappers
// around the layers' public interfaces, and the result carries per-layer
// metrics plus the tracing overhead. Every workload reports every metric of
// its mode, each in that workload's own terms (README.md defines them).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"remapd/internal/det"
)

// Set-up is repeated at least minSetupReps times, and while the
// repetitions together took less than setupBudget up to maxSetupReps
// times; setup_s is the median, so one slow repetition (page faults, a
// noisy neighbour) does not decide it, and a set-up of milliseconds is
// repeated often enough to be timed steadily.
const (
	minSetupReps = 3
	maxSetupReps = 25
	setupBudget  = 0.5 // seconds
)

// endToEnd and perLayer name the metrics a run reports with --trace 0 and
// --trace 1; BENCHMARK.json lists the same names. A run that does not set
// exactly these fails instead of printing a partial result.
var (
	endToEnd = []string{"setup_s", "peak_rss_mb", "alloc_mb", "throughput", "latency_ms", "latency_tail_ms", "accuracy"}
	perLayer = []string{
		"op_ms_p50", "op_ms_p95",
		"nn.conv_s", "nn.linear_s", "nn.norm_act_pool_s", "nn.infer_ms_per_batch",
		"tensor.gflop", "tensor.gflops",
		"arch.refresh_s", "arch.refresh_calls",
		"remap.policy_s", "remap.calls",
		"runtime.gc_cycles", "runtime.gc_cpu_frac", "runtime.sched_lat_us_p99",
		"trace.overhead_ratio",
	}
)

// missingOrExtra compares the metrics set against want and describes the
// difference, or returns "" when they match.
func missingOrExtra(got map[string]metric, want []string) string {
	var missing, extra []string
	wanted := map[string]bool{}
	for _, n := range want {
		wanted[n] = true
		if _, ok := got[n]; !ok {
			missing = append(missing, n)
		}
	}
	for _, n := range det.SortedKeys(got) {
		if !wanted[n] {
			extra = append(extra, n)
		}
	}
	if len(missing) == 0 && len(extra) == 0 {
		return ""
	}
	return fmt.Sprintf("missing %v, unexpected %v", missing, extra)
}

// metric is one named measurement in the result object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state one invocation accumulates: the parsed flags, the
// metrics measured so far and the output checks that failed.
type bench struct {
	seed    uint64
	seconds float64
	trace   bool

	attempted, failed int64
	metrics           map[string]metric
	failures          []string
}

// set records one metric.
func (b *bench) set(name, unit string, v float64) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// check records an output check; a false cond makes the run incorrect.
func (b *bench) check(cond bool, format string, args ...interface{}) {
	if !cond {
		msg := fmt.Sprintf(format, args...)
		b.failures = append(b.failures, msg)
		fmt.Fprintf(os.Stderr, "CHECK FAILED: %s\n", msg)
	}
}

// logf prints an informational line to standard output (never the last
// line: the result object always follows).
func (b *bench) logf(format string, args ...interface{}) {
	fmt.Printf(format+"\n", args...)
}

// timeSetup runs setup repeatedly, records setup_s as the median
// duration, and returns the last repetition's state.
func timeSetup[T any](b *bench, setup func() (T, error)) (T, error) {
	var st T
	var secs []float64
	for len(secs) < minSetupReps || (len(secs) < maxSetupReps && sum(secs) < setupBudget) {
		//lint:allow no-wall-clock benchmark harness: set-up time is a host-time metric
		start := time.Now()
		var err error
		st, err = setup()
		if err != nil {
			return st, err
		}
		//lint:allow no-wall-clock benchmark harness: set-up time is a host-time metric
		secs = append(secs, time.Since(start).Seconds())
	}
	if !b.trace {
		b.set("setup_s", "s", median(secs))
	}
	b.logf("setup: %d repetitions, median %.4f s", len(secs), median(secs))
	return st, nil
}

// allocMB returns the bytes the process has allocated so far, in MB.
func allocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(ctx context.Context, b *bench) error{
	"train-grid": runTrainGrid,
	"serve-wear": runServeWear,
	"serve-http": runServeHTTP,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: train-grid, serve-wear or serve-http")
		seed     = flag.Uint64("seed", defaultSeed, "seed all generated inputs derive from")
		seconds  = flag.Float64("seconds", 20, "how long the timed phase measures")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: remapd-bench --workload train-grid|serve-wear|serve-http --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	b := &bench{seed: *seed, seconds: *seconds, trace: *trace == 1, metrics: map[string]metric{}}
	b.logf("workload %s seed %d seconds %g trace %v gomaxprocs %d numcpu %d",
		*workload, b.seed, b.seconds, b.trace, runtime.GOMAXPROCS(0), runtime.NumCPU())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, b); err != nil {
		fmt.Fprintf(os.Stderr, "remapd-bench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if !b.trace {
		rss, err := peakRSSMB()
		if err != nil {
			fmt.Fprintf(os.Stderr, "remapd-bench: %v\n", err)
			os.Exit(1)
		}
		b.set("peak_rss_mb", "MB", rss)
	}
	for _, name := range det.SortedKeys(b.metrics) {
		m := b.metrics[name]
		b.logf("%-28s %14.6g %s", name, m.Value, m.Unit)
	}
	want := endToEnd
	if b.trace {
		want = perLayer
	}
	if diff := missingOrExtra(b.metrics, want); diff != "" {
		fmt.Fprintf(os.Stderr, "remapd-bench: %s: metrics do not match the manifest: %s\n", *workload, diff)
		os.Exit(1)
	}
	out, err := json.Marshal(result{
		Correct:   len(b.failures) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "remapd-bench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
