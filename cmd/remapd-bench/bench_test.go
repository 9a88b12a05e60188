package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"remapd/internal/arch"
	"remapd/internal/dataset"
	"remapd/internal/experiments"
	"remapd/internal/models"
	"remapd/internal/nn"
	"remapd/internal/reram"
	"remapd/internal/serve"
	"remapd/internal/tensor"
	"remapd/internal/trainer"
)

// TestManifestNamesTheReportedMetrics keeps BENCHMARK.json, at the
// repository root, and the metric lists a run checks itself against in
// step.
func TestManifestNamesTheReportedMetrics(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	for _, c := range []struct {
		what      string
		got, want []string
	}{{"end_to_end", names(m.EndToEnd), endToEnd}, {"per_layer", names(m.PerLayer), perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: manifest %v, benchmark %v", c.what, c.got, c.want)
		}
		for i := range c.got {
			if c.got[i] != c.want[i] {
				t.Fatalf("%s: manifest %v, benchmark %v", c.what, c.got, c.want)
			}
		}
	}
	for _, w := range m.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("manifest workload %q has no runner", w.Name)
		}
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest lists %d workloads, the benchmark runs %d", len(m.Workloads), len(workloads))
	}
}

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	if v, ok := percentile(ramp(1000), 0.99); !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if _, ok := percentile(ramp(999), 0.99); ok {
		t.Fatal("p99 of 999 samples has 9 beyond it and must not be reported")
	}
	if v, ok := percentile(ramp(200), 0.95); !ok || v != 190 {
		t.Fatalf("p95 of 1..200 = %v, %v; want 190, true", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Fatal("percentile of no samples reported")
	}
}

func TestPercentileCountsMissesAsLate(t *testing.T) {
	xs := ramp(1000)
	for i := 0; i < 11; i++ {
		xs[i] = math.Inf(1) // refused or never answered
	}
	if v, ok := percentile(xs, 0.99); !ok || !math.IsInf(v, 1) {
		t.Fatalf("p99 with 11 misses in 1000 = %v, %v; want +Inf", v, ok)
	}
}

func TestWindowedPercentileIsMedianOfWindows(t *testing.T) {
	xs := make([]float64, 3500)
	for i := range xs {
		xs[i] = 1
	}
	// Window 2 (samples 1000-1999) carries a burst: 50 samples at 100.
	for i := 1000; i < 1050; i++ {
		xs[i] = 100
	}
	// The 500-sample remainder joins the third window, which carries 20
	// samples at 5: its p99 is 5. The windows' p99s are 1, 100 and 5, so
	// the burst does not decide the result.
	for i := 3000; i < 3020; i++ {
		xs[i] = 5
	}
	p, n, ok := windowedPercentile(xs, 0.99, 1000)
	if !ok || n != 3 || p != 5 {
		t.Fatalf("windowed p99 = %v over %d windows (ok %v), want 5 over 3", p, n, ok)
	}
	if _, _, ok := windowedPercentile(xs[:999], 0.99, 1000); ok {
		t.Fatal("999 samples cannot back a p99")
	}
	if _, _, ok := windowedPercentile(xs[:1000], 0.99, 100); ok {
		t.Fatal("a 100-sample window cannot back a p99")
	}
	if _, n, ok := windowedPercentile(xs[:1000], 0.95, tailWindow); !ok || n != 2 {
		t.Fatalf("1000 samples give %d tail windows (ok %v), want 2", n, ok)
	}
}

func TestDerivedSeedsKeepTheSeedAndDoNotOverlap(t *testing.T) {
	if derivedSeed(7, 0) != 7 {
		t.Fatal("a run's first draw must use its own seed, so recorded outcomes apply")
	}
	seen := map[uint64]bool{}
	for seed := uint64(100); seed < 110; seed++ {
		for k := 0; k < 3; k++ {
			d := derivedSeed(seed, k)
			if seen[d] {
				t.Fatalf("seed %d draw %d = %d repeats another run's draw", seed, k, d)
			}
			seen[d] = true
		}
	}
}

func TestMedianAndExactTicks(t *testing.T) {
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
	ticks := make([]uint64, 1000)
	for i := range ticks {
		ticks[i] = uint64(1000 - i)
	}
	if v, ok := exactTickQuantile(ticks, 0.99); !ok || v != 990 {
		t.Fatalf("tick p99 = %d, %v; want 990, true", v, ok)
	}
	if _, ok := exactTickQuantile(ticks[:500], 0.99); ok {
		t.Fatal("tick p99 of 500 samples must not be reported")
	}
}

func TestPoissonScheduleIsSeededAndHasItsRate(t *testing.T) {
	a := poissonSchedule(200, 4000, tensor.NewRNG(9))
	b := poissonSchedule(200, 4000, tensor.NewRNG(9))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules from one seed differ at %d", i)
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("due times decrease at %d", i)
		}
	}
	if rate := float64(len(a)) / a[len(a)-1]; rate < 190 || rate > 210 {
		t.Fatalf("offered rate %.1f, want ~200", rate)
	}
}

func TestBacklogGrowth(t *testing.T) {
	due := poissonSchedule(100, 1000, tensor.NewRNG(3))
	steady := make([]float64, len(due))
	overload := make([]float64, len(due))
	for i, d := range due {
		steady[i] = d + 0.005
		overload[i] = float64(i+1) / 80 // served at 80/s while offered 100/s
		if overload[i] < d {
			overload[i] = d
		}
	}
	if backlogGrowing(due, steady) {
		t.Fatal("a backlog that keeps up was reported growing")
	}
	if !backlogGrowing(due, overload) {
		t.Fatal("serving 80/s under 100/s offered was not reported growing")
	}
}

func TestJudgeRungTimesFromDueAndCountsMisses(t *testing.T) {
	due := poissonSchedule(100, 1000, tensor.NewRNG(5))
	done := make([]float64, len(due))
	for i, d := range due {
		done[i] = d + 0.002
	}
	// A stall: request 500 was sent 30 ms after it was due. Timed from
	// when it was sent it would look fast; timed from due it is late.
	done[500] = due[500] + 0.031
	r := judgeRung(100, due, done, nil, len(due), 0)
	if !r.KeptUp() || r.P50Ms < 1.99 || r.P50Ms > 2.01 {
		t.Fatalf("steady rung: kept up %v p50 %.3f ms", r.KeptUp(), r.P50Ms)
	}
	for i := 0; i < 11; i++ {
		done[i*90] = math.Inf(1)
	}
	r = judgeRung(100, due, done, nil, len(due), 11)
	if r.KeptUp() || !math.IsInf(r.P99Ms, 1) {
		t.Fatalf("11 missed requests mean the server did not keep up: kept up %v p99 %v", r.KeptUp(), r.P99Ms)
	}
	if r := judgeRung(100, due[:500], done[:500], nil, 500, 0); r.KeptUp() || r.HasP99 {
		t.Fatal("a rung too short for an honest p99 cannot show the server kept up")
	}
}

// fakeClassifier answers /classify with class 3 after delay.
func fakeClassifier(delay time.Duration) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(delay)
		if err := json.NewEncoder(w).Encode(serve.ClassifyResponse{Class: 3}); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}))
}

func testClient(url string) *loadClient {
	tr := &http.Transport{MaxConnsPerHost: httpConns, MaxIdleConnsPerHost: httpConns}
	return &loadClient{
		url:     url,
		client:  &http.Client{Transport: tr, Timeout: 5 * time.Second},
		bodies:  [][]byte{[]byte(`{"image":[]}`)},
		classes: []int{3},
		labels:  []int{3},
	}
}

func TestRungAgainstFastServerPasses(t *testing.T) {
	srv := fakeClassifier(0)
	defer srv.Close()
	c := testClient(srv.URL)
	r := c.runRung(context.Background(), 2000, 1000, tensor.NewRNG(1))
	if !r.KeptUp() || r.Sent != 1000 || r.Errors != 0 || c.wrong.Load() != 0 {
		t.Fatalf("fast server: %+v, wrong %d", r, c.wrong.Load())
	}
}

func TestRungAbandonsGrowingBacklog(t *testing.T) {
	srv := fakeClassifier(20 * time.Millisecond) // 2 connections: ~100 rps
	defer srv.Close()
	c := testClient(srv.URL)
	r := c.runRung(context.Background(), 1000, 1000, tensor.NewRNG(1))
	if r.KeptUp() || r.Failed == 0 || r.Sent >= 1000 {
		t.Fatalf("overloaded rung should be abandoned with misses: %+v", r)
	}
	if r.Errors != 0 {
		t.Fatalf("abandoning a rung is not an error of the server: %d errors", r.Errors)
	}
}

func TestClosedLoopIsBoundByConnections(t *testing.T) {
	srv := fakeClassifier(10 * time.Millisecond) // 2 connections: at most ~200 replies/s
	defer srv.Close()
	c := testClient(srv.URL)
	rps, failed := c.closedLoop(context.Background(), 100, tensor.NewRNG(1))
	if failed != 0 || c.right.Load() != 100 || c.wrong.Load() != 0 {
		t.Fatalf("closed loop: %d failed, %d right, %d wrong", failed, c.right.Load(), c.wrong.Load())
	}
	if rps <= 0 || rps > 2/0.010 {
		t.Fatalf("closed loop over %d connections to a 10 ms server answered %.1f/s", httpConns, rps)
	}
}

func TestClosedLoopCountsFailures(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "refused", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	c := testClient(srv.URL)
	if _, failed := c.closedLoop(context.Background(), 20, tensor.NewRNG(1)); failed != 20 {
		t.Fatalf("20 refused requests counted as %d failures", failed)
	}
}

// TestInstrumentIsTransparent trains the same small network on a faulty
// chip with and without traced wrappers and checks that the results and
// the trained weights are identical, and that the trace finds every step.
func TestInstrumentIsTransparent(t *testing.T) {
	ds := dataset.CIFAR10Like(64, 32, 8, 5)
	reg := experiments.DefaultRegime()
	run := func(tr *tracer) (*trainer.Result, *nn.Network) {
		net := models.CNNSmall(models.Config{InC: 3, InH: 8, InW: 8, Classes: 10, WidthScale: 0.25, Seed: 2})
		p := reram.DefaultDeviceParams()
		p.CrossbarSize = 32
		cfg := trainer.DefaultConfig()
		cfg.Epochs, cfg.BatchSize = 2, 16
		cfg.Chip = arch.NewChip(p, arch.Geometry{TilesX: 4, TilesY: 4, IMAsPerTile: 2, XbarsPerIMA: 4})
		pol, _, err := experiments.PolicyByName("remap-d", reg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Policy, cfg.Pre, cfg.Post = pol, &reg.Pre, &reg.Post
		if tr != nil {
			cfg.Policy = &tracedPolicy{inner: pol, t: tr}
			if err := instrument(net, tr); err != nil {
				t.Fatal(err)
			}
			id := tr.begin(kCell, -1)
			defer tr.end(id)
		}
		res, err := trainer.Train(net, ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, net
	}
	want, wantNet := run(nil)
	tr := newTracer(time.Now())
	got, gotNet := run(tr)
	if got.FinalTestAcc != want.FinalTestAcc || got.Swaps != want.Swaps || got.FaultsInjected != want.FaultsInjected {
		t.Fatalf("traced run differs: %+v vs %+v", got, want)
	}
	wp, gp := wantNet.Params(), gotNet.Params()
	for i := range wp {
		for j, v := range wp[i].W.Data {
			if gp[i].W.Data[j] != v {
				t.Fatalf("param %s[%d] differs: %v vs %v", wp[i].Name, j, gp[i].W.Data[j], v)
			}
		}
	}
	var lt layerTotals
	lt.addSpans(tr)
	lt.addCell(tr, 0)
	if steps := 2 * (64 / 16); len(lt.steps) != steps {
		t.Fatalf("trace found %d training steps, want %d", len(lt.steps), steps)
	}
	if lt.calls[kArchFwd] == 0 || lt.calls[kArchWritten] == 0 || lt.calls[kMaintain] != 2 || lt.eval <= 0 || lt.sgd <= 0 {
		t.Fatalf("trace missed a layer: fabric %d written %d maintain %d eval %v sgd %v",
			lt.calls[kArchFwd], lt.calls[kArchWritten], lt.calls[kMaintain], lt.eval, lt.sgd)
	}
}
