package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"remapd/internal/dataset"
	"remapd/internal/det"
	"remapd/internal/experiments"
	"remapd/internal/remap"
	"remapd/internal/trainer"
)

// traceDir is where traced runs write their spans, relative to the
// directory the benchmark runs in.
const traceDir = ".bench_build/traces"

// benchIDHeader carries the load generator's request id, so the traced
// run can pair a request's handler time with its round trip.
const benchIDHeader = "X-Bench-Id"

// ---- span analysis ----

// layerTotals aggregates per-layer figures over tracers.
type layerTotals struct {
	self         [numKinds]float64 // seconds of self time per kind
	dur          [numKinds]float64 // seconds of whole-span time per kind
	calls        [numKinds]int
	flops        int64
	steps        []float64 // training step wall times, ms
	sgd          float64   // seconds from the backward pass's end to the step's last write
	eval         float64   // seconds spent evaluating
	epochEnd     float64   // seconds of per-epoch work outside steps and evaluation
	inferBatches []float64 // whole-network inference (or evaluation) forward per batch, ms
	sealing      []float64 // Submit/Flush calls that executed a batch, ms
	swaps        int
}

func secs(ns int64) float64 { return float64(ns) / 1e9 }
func msec(ns int64) float64 { return float64(ns) / 1e6 }

func isLayer(k spanKind) bool { return k >= kConvFwd && k <= kOtherBwd }
func isFwd(k spanKind) bool   { return k == kConvFwd || k == kLinearFwd || k == kOtherFwd }

// addSpans charges every span of t to its kind and derives inference
// batches and batch-sealing calls.
func (lt *layerTotals) addSpans(t *tracer) {
	last := int16(0)
	for i := range t.spans {
		if s := &t.spans[i]; isLayer(s.kind) && s.layer > last {
			last = s.layer
		}
	}
	var batchStart int64
	for i := range t.spans {
		s := &t.spans[i]
		lt.self[s.kind] += secs(s.self())
		lt.dur[s.kind] += secs(s.dur())
		lt.calls[s.kind]++
		lt.flops += s.flops
		lt.swaps += s.swaps
		switch {
		case (s.kind == kSubmit || s.kind == kFlush) && s.child > 0:
			lt.sealing = append(lt.sealing, msec(s.dur()))
		case isFwd(s.kind) && !s.train && s.layer == 0:
			batchStart = s.start
		case isFwd(s.kind) && !s.train && s.layer == last:
			lt.inferBatches = append(lt.inferBatches, msec(s.end-batchStart))
		}
	}
}

// addCell derives the trainer's phases from one cell's spans: a step runs
// from the first layer's training forward to the last optimizer write
// before the next step or evaluation; an evaluation from the first eval
// forward to the last; everything else after the first step is per-epoch
// work (wear injection, BIST and policy maintenance, bookkeeping).
func (lt *layerTotals) addCell(t *tracer, cell int32) {
	c := &t.spans[cell]
	const (
		idle = iota
		step
		eval
	)
	state := idle
	var phaseStart, phaseEnd, bwdEnd, written, firstStep int64 = 0, 0, -1, 0, -1
	var steps, evals int64
	closePhase := func() {
		switch state {
		case step:
			steps += phaseEnd - phaseStart
			lt.steps = append(lt.steps, msec(phaseEnd-phaseStart))
			if bwdEnd >= 0 {
				lt.sgd += secs(phaseEnd - bwdEnd - written)
			}
		case eval:
			evals += phaseEnd - phaseStart
			lt.eval += secs(phaseEnd - phaseStart)
		}
		state = idle
	}
	for i := cell + 1; i < int32(len(t.spans)); i++ {
		s := &t.spans[i]
		if s.parent != cell {
			continue
		}
		switch {
		case isFwd(s.kind) && s.train && s.layer == 0:
			closePhase()
			state, phaseStart, phaseEnd, bwdEnd, written = step, s.start, s.end, -1, 0
			if firstStep < 0 {
				firstStep = s.start
			}
		case isFwd(s.kind) && !s.train:
			if state != eval {
				closePhase()
				state, phaseStart = eval, s.start
			}
			phaseEnd = s.end
		case isLayer(s.kind) && state == step:
			phaseEnd = s.end
			if !isFwd(s.kind) && s.layer == 0 {
				bwdEnd = s.end
			}
		case s.kind == kArchWritten && state == step:
			phaseEnd = s.end
			written += s.dur()
		default:
			closePhase()
		}
	}
	closePhase()
	if firstStep >= 0 {
		lt.epochEnd += secs(c.end - firstStep - steps - evals)
	}
}

// report sets the per-layer metrics every workload shares. ops are the
// workload's own operation times in ms (a training step, a served batch,
// a handler call); overhead is the traced pass's time over the untraced
// one's, minus one.
func (lt *layerTotals) report(b *bench, ops []float64, overhead float64) error {
	p95, ok := percentile(ops, 0.95)
	if !ok {
		return fmt.Errorf("%d operations are too few for a p95", len(ops))
	}
	gemm := lt.self[kConvFwd] + lt.self[kConvBwd] + lt.self[kLinearFwd] + lt.self[kLinearBwd]
	if gemm <= 0 || len(lt.inferBatches) == 0 {
		return fmt.Errorf("the trace saw no convolution, linear or inference work")
	}
	b.set("op_ms_p50", "ms", median(ops))
	b.set("op_ms_p95", "ms", p95)
	b.set("nn.conv_s", "s", lt.self[kConvFwd]+lt.self[kConvBwd])
	b.set("nn.linear_s", "s", lt.self[kLinearFwd]+lt.self[kLinearBwd])
	b.set("nn.norm_act_pool_s", "s", lt.self[kOtherFwd]+lt.self[kOtherBwd])
	b.set("nn.infer_ms_per_batch", "ms", median(lt.inferBatches))
	b.set("tensor.gflop", "GFLOP", float64(lt.flops)/1e9)
	b.set("tensor.gflops", "GFLOP/s", float64(lt.flops)/1e9/gemm)
	b.set("arch.refresh_s", "s", lt.dur[kArchFwd]+lt.dur[kArchBwd])
	b.set("arch.refresh_calls", "count", float64(lt.calls[kArchFwd]+lt.calls[kArchBwd]))
	b.set("remap.policy_s", "s", lt.dur[kDeploy]+lt.dur[kMaintain])
	b.set("remap.calls", "count", float64(lt.calls[kDeploy]+lt.calls[kMaintain]))
	b.set("trace.overhead_ratio", "ratio", overhead)
	b.logf("layers: conv fwd %.3f s bwd %.3f s, linear fwd %.3f s bwd %.3f s, arch grad %.3f s, remap deploy %d maintain %d (%d swaps)",
		lt.self[kConvFwd], lt.self[kConvBwd], lt.self[kLinearFwd], lt.self[kLinearBwd], lt.dur[kArchGrad],
		lt.calls[kDeploy], lt.calls[kMaintain], lt.swaps)
	return nil
}

// ---- Go runtime ----

// runtimeSnap is a reading of the Go runtime's cumulative counters.
type runtimeSnap struct {
	gcCycles      uint32
	gcCPU, allCPU float64
	sched         *metrics.Float64Histogram
}

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/sched/latencies:seconds"},
}

func readRuntime() runtimeSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(samples)
	return runtimeSnap{
		gcCycles: ms.NumGC,
		gcCPU:    samples[0].Value.Float64(),
		allCPU:   samples[1].Value.Float64(),
		sched:    samples[2].Value.Float64Histogram(),
	}
}

// reportRuntime sets the runtime metrics for the interval between two
// readings: GC cycles, GC's share of CPU time, and the p99 goroutine
// scheduling latency (the upper bound of the runtime histogram's bucket).
func reportRuntime(b *bench, from, to runtimeSnap) {
	b.set("runtime.gc_cycles", "count", float64(to.gcCycles-from.gcCycles))
	gcFrac := 0.0
	if cpu := to.allCPU - from.allCPU; cpu > 0 {
		gcFrac = (to.gcCPU - from.gcCPU) / cpu
	}
	b.set("runtime.gc_cpu_frac", "ratio", gcFrac)
	counts := make([]uint64, len(to.sched.Counts))
	var total uint64
	for i := range counts {
		counts[i] = to.sched.Counts[i] - from.sched.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return
	}
	rank := uint64(0.99*float64(total)) + 1
	var seen uint64
	for i, n := range counts {
		seen += n
		if seen >= rank {
			bound := to.sched.Buckets[i+1]
			if math.IsInf(bound, 1) {
				bound = to.sched.Buckets[i]
			}
			b.set("runtime.sched_lat_us_p99", "us", bound*1e6)
			return
		}
	}
}

// ---- train-grid ----

// traceTrainGrid runs the grid untraced through experiments.Fig6 (timing
// its Progress hook and the runtime), then rebuilds every cell from public
// calls with traced layers, fabric and policy, on as many workers as the
// runner uses, and checks the two tables agree.
func traceTrainGrid(ctx context.Context, b *bench, s experiments.Scale) error {
	names := experiments.PolicyNames()
	var progress []float64
	//lint:allow no-wall-clock traced run: untraced reference grid timing
	t0 := time.Now()
	var mu sync.Mutex
	s.Progress = func(format string, _ ...interface{}) {
		if !strings.HasPrefix(format, "cell ") {
			return // a cell's transcript line, not its completion
		}
		mu.Lock()
		defer mu.Unlock()
		//lint:allow no-wall-clock traced run: cell completion times from Fig6's Progress hook
		progress = append(progress, time.Since(t0).Seconds())
	}
	r0 := readRuntime()
	want, err := fig6Cells(ctx, s)
	if err != nil {
		return err
	}
	r1 := readRuntime()
	//lint:allow no-wall-clock traced run: untraced reference grid timing
	untraced := time.Since(t0).Seconds()
	s.Progress = nil
	b.check(len(progress) == len(names), "Fig6 reported %d completed cells, want %d", len(progress), len(names))
	b.logf("untraced Fig6 cells completed at %.2f s", progress)
	checkGrid(b, b.seed, want)
	reportRuntime(b, r0, r1)

	reg := experiments.DefaultRegime()
	ds := dataset.CIFAR10Like(s.TrainN, s.TestN, s.ImgSize, 77)
	width := runtime.GOMAXPROCS(0)
	tracers := make([]*tracer, len(names))
	got := make([]gridCell, len(names))
	errs := make([]error, len(names))
	jobs := make(chan int)
	//lint:allow no-wall-clock traced run: traced grid wall time and span origin
	origin := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func(ctx context.Context) {
			defer wg.Done()
			for i := range jobs {
				tracers[i] = newTracer(origin)
				got[i], errs[i] = tracedCell(ctx, s, reg, ds, names[i], tracers[i])
			}
		}(ctx)
	}
	for i := range names {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	//lint:allow no-wall-clock traced run: traced grid wall time and span origin
	traced := time.Since(origin).Seconds()
	b.attempted += int64(2 * len(names))
	for i, err := range errs {
		if err != nil {
			b.failed++
			return fmt.Errorf("traced cell %s: %w", names[i], err)
		}
		b.check(got[i].key() == want[i].key(), "traced cell %s = %s, untraced Fig6 %s", names[i], got[i].key(), want[i].key())
	}

	var lt layerTotals
	var cells []float64
	for _, t := range tracers {
		lt.addSpans(t)
		lt.addCell(t, 0)
		cells = append(cells, secs(t.spans[0].dur()))
	}
	if err := lt.report(b, lt.steps, traced/untraced-1); err != nil {
		return err
	}
	p95, _ := percentile(lt.steps, 0.95)
	b.logf("trainer: %d steps, p50 %.2f ms, p95 %.2f ms; sgd %.3f s, eval %.3f s, epoch end %.3f s",
		len(lt.steps), median(lt.steps), p95, lt.sgd, lt.eval, lt.epochEnd)
	b.logf("cells: p50 %.3f s, max %.3f s, tail idle %.3f s on %d workers",
		median(cells), maxOf(cells), traced-sum(cells)/float64(width), width)
	b.logf("untraced grid %.3f s, traced grid %.3f s", untraced, traced)
	return writeSpans(fmt.Sprintf("%s/train-grid-seed%d.jsonl", traceDir, b.seed), "train-grid", tracers)
}

// tracedCell reproduces one Fig. 6 cell (experiments' runOne) from public
// calls, with the network, its fabric and the policy traced.
func tracedCell(ctx context.Context, s experiments.Scale, reg experiments.FaultRegime, ds *dataset.Dataset, policy string, t *tracer) (gridCell, error) {
	seed := s.Seeds[0]
	net, err := experiments.BuildModel("vgg11", s, seed, 10)
	if err != nil {
		return gridCell{}, err
	}
	cfg := trainer.DefaultConfig()
	cfg.Epochs, cfg.BatchSize, cfg.LR, cfg.Seed, cfg.Ctx = s.Epochs, s.BatchSize, s.LR, seed, ctx
	if policy != "ideal" {
		pol, trackGrads, err := experiments.PolicyByName(policy, reg)
		if err != nil {
			return gridCell{}, err
		}
		cfg.Chip = experiments.NewChip(s)
		cfg.Policy = &tracedPolicy{inner: pol, t: t}
		cfg.Pre, cfg.Post, cfg.TrackGradAbs = &reg.Pre, &reg.Post, trackGrads
	}
	if err := instrument(net, t); err != nil {
		return gridCell{}, err
	}
	id := t.begin(kCell, -1)
	res, err := trainer.Train(net, ds, cfg)
	t.end(id)
	if err != nil {
		return gridCell{}, err
	}
	return gridCell{Acc: res.FinalTestAcc, Swaps: res.Swaps}, nil
}

// ---- serve-wear ----

// traceServeWear drives one untraced and one traced pool through the same
// traffic and checks they serve identically.
func traceServeWear(ctx context.Context, b *bench, ck *checkpoint) error {
	pool, err := buildPool(ck, b.seed, poolOptions{chips: wearChips, wear: true})
	if err != nil {
		return err
	}
	reqs := trafficRequests(ck.ds, b.seed, wearRequests)
	r0 := readRuntime()
	untraced := drive(pool.srv, reqs)
	r1 := readRuntime()
	reportRuntime(b, r0, r1)
	want, err := outcomeOf(reqs)
	if err != nil {
		return err
	}
	wantStats := fmt.Sprintf("%+v", pool.srv.Stats())

	//lint:allow no-wall-clock traced run: span origin
	t := newTracer(time.Now())
	pool, err = buildPool(ck, b.seed, poolOptions{chips: wearChips, wear: true,
		wrapPolicy: func(p remap.Policy) remap.Policy { return &tracedPolicy{inner: p, t: t} }})
	if err != nil {
		return err
	}
	for _, net := range pool.nets {
		if err := instrument(net, t); err != nil {
			return err
		}
	}
	reqs = trafficRequests(ck.ds, b.seed, wearRequests)
	//lint:allow no-wall-clock traced run: traced drive wall time
	start := time.Now()
	for _, r := range reqs {
		id := t.begin(kSubmit, -1)
		pool.srv.Submit(r)
		t.end(id)
	}
	id := t.begin(kFlush, -1)
	pool.srv.Flush()
	t.end(id)
	//lint:allow no-wall-clock traced run: traced drive wall time
	traced := time.Since(start).Seconds()
	b.attempted += int64(2 * len(reqs))
	got, err := outcomeOf(reqs)
	if err != nil {
		return err
	}
	st := pool.srv.Stats()
	b.check(got == want, "traced drive served different classes or ticks than the untraced one")
	b.check(fmt.Sprintf("%+v", st) == wantStats, "traced drive Stats() differ from the untraced drive's")

	var lt layerTotals
	lt.addSpans(t)
	if err := lt.report(b, lt.sealing, traced/untraced-1); err != nil {
		return err
	}
	b.logf("serve: %d batches (mean size %.2f), %d deadline flushes, %d BIST scans, %d online swaps, %d wear faults; remap maintain %.3f s",
		st.Batches, float64(st.Requests)/float64(st.Batches), st.DeadlineFlushes, st.BISTScans, st.OnlineSwaps, st.WearFaults, lt.dur[kMaintain])
	b.logf("untraced drive %.3f s, traced drive %.3f s", untraced, traced)
	return writeSpans(fmt.Sprintf("%s/serve-wear-seed%d.jsonl", traceDir, b.seed), "serve-wear", []*tracer{t})
}

// ---- serve-http ----

// handlerTimes records each request's ServeHTTP duration by its id.
type handlerTimes struct {
	mu  sync.Mutex
	dur map[int64]float64 // seconds
}

// wrap times every ServeHTTP call of h.
func (ht *handlerTimes) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		//lint:allow no-wall-clock traced run: handler time is the measurement
		start := time.Now()
		h.ServeHTTP(w, r)
		//lint:allow no-wall-clock traced run: handler time is the measurement
		d := time.Since(start).Seconds()
		id, err := strconv.ParseInt(r.Header.Get(benchIDHeader), 10, 64)
		if err != nil {
			return
		}
		ht.mu.Lock()
		ht.dur[id] = d
		ht.mu.Unlock()
	})
}

// traceServeHTTP runs the open loop untraced, then again against a pool
// built with its policy, layers and fabric traced, and splits each round
// trip into handler and client-side time.
func traceServeHTTP(ctx context.Context, b *bench, st *httpState) error {
	r0 := readRuntime()
	plain, err := serveFront(ctx, b, st, st.pool, false, nil, nil)
	if err != nil {
		return err
	}
	r1 := readRuntime()
	reportRuntime(b, r0, r1)

	//lint:allow no-wall-clock traced run: span origin
	t := newTracer(time.Now())
	pool, err := buildPool(st.ck, b.seed, poolOptions{chips: 1,
		wrapPolicy: func(p remap.Policy) remap.Policy { return &tracedPolicy{inner: p, t: t} }})
	if err != nil {
		return err
	}
	if err := instrument(pool.nets[0], t); err != nil {
		return err
	}
	ht := &handlerTimes{dur: map[int64]float64{}}
	var rtMu sync.Mutex
	roundTrips := map[int64]float64{}
	traced, err := serveFront(ctx, b, st, pool, false, ht.wrap, func(id int64, rt float64) {
		rtMu.Lock()
		roundTrips[id] = rt
		rtMu.Unlock()
	})
	if err != nil {
		return err
	}
	b.attempted += int64(plain.refN + traced.refN)
	b.failed += int64(plain.ref.Failed + traced.ref.Failed)
	b.check(traced.refRight == plain.refRight, "traced open loop matched %d labels, untraced %d", traced.refRight, plain.refRight)

	var handler, client []float64
	for _, id := range det.SortedKeys(roundTrips) {
		h, ok := ht.dur[id]
		if !ok {
			continue
		}
		handler = append(handler, h*1e3)
		client = append(client, (roundTrips[id]-h)*1e3)
	}
	ref, plainRef := traced.ref, plain.ref
	var lt layerTotals
	lt.addSpans(t)
	if err := lt.report(b, handler, ref.P50Ms/plainRef.P50Ms-1); err != nil {
		return err
	}
	b.logf("http: client p50 %.3f ms beyond the handler, batch size mean %.2f, generator lag p99 %.2f ms; %d handler samples",
		median(client), float64(traced.requests)/float64(traced.batches), ref.LagP99, len(handler))
	b.logf("open loop untraced p50 %.3f tail %.3f ms, traced p50 %.3f tail %.3f ms",
		plainRef.P50Ms, plainRef.WinP95, ref.P50Ms, ref.WinP95)
	return writeSpans(fmt.Sprintf("%s/serve-http-seed%d.jsonl", traceDir, b.seed), "serve-http", []*tracer{t})
}
