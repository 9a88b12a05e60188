package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"remapd/internal/serve"
	"remapd/internal/tensor"
)

const (
	// httpConns is the generator's connection count: the open loop's
	// requests queue client-side for one of these two keep-alive
	// connections, which is where a stall's cost lands.
	httpConns = 2
	// referenceRate is the fixed open-loop rate the latency metrics are
	// reported at, for --seconds: half the two-connection ceiling the
	// front's flush ticker sets (~200 rps).
	referenceRate = 100
	// capacityRequests is the closed-loop phase's request count: about
	// five seconds at the ticker-bound ceiling.
	capacityRequests = 1000
	// maxBacklog abandons the open loop once this many released requests
	// are unanswered: at the front's ~200 rps ceiling that is a quarter
	// second of queue.
	maxBacklog = 50
	// tracedOpenLoopSeconds caps each of a traced run's two open loops:
	// 1000 requests give the handler's percentiles enough samples.
	tracedOpenLoopSeconds = 10
	// flushPeriod is the front's wall-clock flush ticker, as remapd-serve
	// sets it.
	flushPeriod = 10 * time.Millisecond
)

// httpState is serve-http's set-up: the front's server, the same chip's
// class for every pool image (from the driver path), and the pre-encoded
// request bodies.
type httpState struct {
	ck      *checkpoint
	pool    *servePool
	classes []int
	labels  []int
	bodies  [][]byte
}

// httpSetup trains the checkpoint, builds a 1-chip pool with wear and
// BIST off (its weights never change), classifies every pool image
// through the driver on an identically built pool, and encodes one
// /classify body per image.
func httpSetup(seed uint64) (*httpState, error) {
	ck, err := trainCheckpoint(seed)
	if err != nil {
		return nil, err
	}
	ref, err := buildPool(ck, seed, poolOptions{chips: 1})
	if err != nil {
		return nil, err
	}
	n := ck.ds.TestLen()
	imgLen := ck.ds.C * ck.ds.H * ck.ds.W
	reqs := make([]*serve.Request, n)
	st := &httpState{ck: ck, classes: make([]int, n), labels: ck.ds.TestY[:n], bodies: make([][]byte, n)}
	for i := range reqs {
		img := ck.ds.TestX.Data[i*imgLen : (i+1)*imgLen]
		reqs[i] = &serve.Request{Image: img, Label: ck.ds.TestY[i], Arrival: uint64(i + 1)}
		body, err := json.Marshal(serve.ClassifyRequest{Image: img})
		if err != nil {
			return nil, fmt.Errorf("encode body: %w", err)
		}
		st.bodies[i] = body
	}
	drive(ref.srv, reqs)
	for i, r := range reqs {
		st.classes[i] = r.Class
	}
	if st.pool, err = buildPool(ck, seed, poolOptions{chips: 1}); err != nil {
		return nil, err
	}
	return st, nil
}

// loadClient sends the open and closed loops' requests over at most httpConns keep-alive
// connections.
type loadClient struct {
	url     string
	client  *http.Client
	bodies  [][]byte
	classes []int
	labels  []int
	// onReply, when non-nil, sees each successful round trip (tracing).
	onReply func(id int64, roundTrip float64)

	nextID atomic.Int64
	wrong  atomic.Int64 // replies whose class differs from the driver's
	right  atomic.Int64 // replies whose class equals the image's label
}

// send posts one body and reports whether it succeeded with the expected
// class.
func (c *loadClient) send(ctx context.Context, img int) bool {
	id := c.nextID.Add(1)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url, bytes.NewReader(c.bodies[img]))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(benchIDHeader, strconv.FormatInt(id, 10))
	//lint:allow no-wall-clock benchmark harness: client round-trip time for the traced split
	t0 := time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var cr serve.ClassifyResponse
	decErr := json.NewDecoder(resp.Body).Decode(&cr)
	if _, err := io.Copy(io.Discard, resp.Body); err != nil || decErr != nil || resp.StatusCode != http.StatusOK {
		return false
	}
	if c.onReply != nil {
		//lint:allow no-wall-clock benchmark harness: client round-trip time for the traced split
		c.onReply(id, time.Since(t0).Seconds())
	}
	if cr.Class != c.classes[img] {
		c.wrong.Add(1)
	}
	if c.labels != nil && cr.Class == c.labels[img] {
		c.right.Add(1)
	}
	return true
}

// runRung offers n Poisson arrivals at rate and times every request from
// when it was due. It returns the rung's verdict and how many requests
// went on the wire and how many of those failed.
func (c *loadClient) runRung(ctx context.Context, rate float64, n int, rng *tensor.RNG) rungResult {
	due := poissonSchedule(rate, n, rng)
	imgs := make([]int, n)
	for i := range imgs {
		imgs[i] = rng.Intn(len(c.bodies))
	}
	done := make([]float64, n)
	for i := range done {
		done[i] = math.Inf(1)
	}
	var lag []float64
	var completed, sent, failed atomic.Int64

	rctx, abandon := context.WithCancel(ctx)
	defer abandon()
	jobs := make(chan int, n) // sized to the rung's sends: the generator never blocks
	//lint:allow no-wall-clock benchmark harness: open-loop schedule origin
	start := time.Now().Add(5 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < httpConns; w++ {
		wg.Add(1)
		go func(ctx context.Context) {
			defer wg.Done()
			for i := range jobs {
				if ctx.Err() != nil {
					continue // abandoned rung: never sent, stays a miss
				}
				sent.Add(1)
				if c.send(ctx, imgs[i]) {
					//lint:allow no-wall-clock benchmark harness: completion time against the open-loop schedule
					done[i] = time.Since(start).Seconds()
				} else if ctx.Err() == nil {
					failed.Add(1)
				}
				completed.Add(1)
			}
		}(rctx)
	}
	for i := 0; i < n; i++ {
		at := start.Add(time.Duration(due[i] * float64(time.Second)))
		//lint:allow no-wall-clock benchmark harness: the open-loop generator sleeps until each due time
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		if int64(i)-completed.Load() >= maxBacklog || ctx.Err() != nil {
			abandon()
			break
		}
		//lint:allow no-wall-clock benchmark harness: generator lateness is a reported metric
		lag = append(lag, time.Since(at).Seconds())
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	missed := 0
	for _, d := range done {
		if math.IsInf(d, 1) {
			missed++
		}
	}
	r := judgeRung(rate, due, done, lag, int(sent.Load()), missed)
	r.Errors = int(failed.Load())
	return r
}

// closedLoop sends n requests back to back over httpConns connections,
// each connection sending its next request as soon as the previous reply
// arrives, and returns the replies per wall second and how many requests
// failed.
func (c *loadClient) closedLoop(ctx context.Context, n int, rng *tensor.RNG) (float64, int) {
	imgs := make([]int, n)
	for i := range imgs {
		imgs[i] = rng.Intn(len(c.bodies))
	}
	var next, failed atomic.Int64
	//lint:allow no-wall-clock benchmark harness: closed-loop capacity is replies per wall second
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < httpConns; w++ {
		wg.Add(1)
		go func(ctx context.Context) {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(n) && ctx.Err() == nil; i = next.Add(1) - 1 {
				if !c.send(ctx, imgs[i]) {
					failed.Add(1)
				}
			}
		}(ctx)
	}
	wg.Wait()
	//lint:allow no-wall-clock benchmark harness: closed-loop capacity is replies per wall second
	wall := time.Since(start).Seconds()
	return float64(n-int(failed.Load())) / wall, int(failed.Load())
}

// frontRun is what one session against the HTTP front measured.
type frontRun struct {
	ref      rungResult // the open loop at the reference rate
	refN     int        // requests the open loop scheduled
	refRight int64      // open-loop replies whose class equals the label
	refAlloc float64    // MB allocated during the open loop
	capRPS   float64    // closed-loop replies per second (0 when skipped)
	capFail  int        // closed-loop requests that failed
	batches  int64      // batches the server executed during the session
	requests int64      // requests the server served during the session
}

// serveFront starts the front over pool and an HTTP server on loopback
// around its handler (wrap, when non-nil, decorates it), runs the open
// loop at the reference rate for --seconds and, when capacity is set, the
// closed loop, and shuts everything down.
func serveFront(ctx context.Context, b *bench, st *httpState, pool *servePool, capacity bool, wrap func(http.Handler) http.Handler, onReply func(int64, float64)) (*frontRun, error) {
	front := serve.NewFront(pool.srv, flushPeriod)
	front.Start()
	defer front.Close()
	h := front.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			fmt.Fprintf(os.Stderr, "http shutdown: %v\n", err)
		}
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "http serve: %v\n", err)
		}
	}()

	transport := &http.Transport{MaxConnsPerHost: httpConns, MaxIdleConnsPerHost: httpConns, DisableCompression: true}
	defer transport.CloseIdleConnections()
	c := &loadClient{
		url:     "http://" + ln.Addr().String() + "/classify",
		client:  &http.Client{Transport: transport, Timeout: 10 * time.Second},
		bodies:  st.bodies,
		classes: st.classes,
		labels:  st.labels,
		onReply: onReply,
	}
	before := pool.srv.Stats()
	rng := tensor.NewRNG(b.seed ^ 0x6874747000000000)
	secs := b.seconds
	if b.trace && secs > tracedOpenLoopSeconds {
		secs = tracedOpenLoopSeconds
	}
	fr := &frontRun{refN: int(referenceRate * secs)}
	a0 := allocMB()
	fr.ref = c.runRung(ctx, referenceRate, fr.refN, rng)
	fr.refAlloc = allocMB() - a0
	fr.refRight = c.right.Load()
	r := fr.ref
	b.logf("open loop %.0f rps: %d scheduled, sent %d, missed %d, p50 %.2f ms, p99 %.2f ms (reportable %v), growing %v, generator lag p99 %.2f ms",
		r.Rate, r.Samples, r.Sent, r.Failed, r.P50Ms, r.P99Ms, r.HasP99, r.Growing, r.LagP99)
	if capacity {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		fr.capRPS, fr.capFail = c.closedLoop(ctx, capacityRequests, rng)
		b.logf("closed loop: %d requests over %d connections, %.1f replies/s, %d failed", capacityRequests, httpConns, fr.capRPS, fr.capFail)
	}
	after := pool.srv.Stats()
	fr.requests, fr.batches = after.Requests-before.Requests, after.Batches-before.Batches
	b.check(c.wrong.Load() == 0, "%d HTTP replies differ from the driver's class for the same image", c.wrong.Load())
	return fr, nil
}

// runServeHTTP measures the serving edge: open-loop Poisson arrivals at
// the reference rate for --seconds, timed from when each request was due,
// then a closed loop of capacityRequests over the same two connections.
// The tail is the median p95 of the open loop's tailWindow-request
// windows.
func runServeHTTP(ctx context.Context, b *bench) error {
	st, err := timeSetup(b, func() (*httpState, error) { return httpSetup(b.seed) })
	if err != nil {
		return err
	}
	if b.trace {
		return traceServeHTTP(ctx, b, st)
	}
	fr, err := serveFront(ctx, b, st, st.pool, true, nil, nil)
	if err != nil {
		return err
	}
	ref := fr.ref
	b.attempted += int64(fr.refN + capacityRequests)
	b.failed += int64(ref.Failed + fr.capFail)
	if ref.Windows == 0 || math.IsInf(ref.WinP95, 1) {
		return fmt.Errorf("the open loop scheduled %d requests and missed %d: no finite tail to report", ref.Samples, ref.Failed)
	}
	b.logf("open loop: %d samples, p50 %.3f ms, p99 %.3f ms, median p95 of %d windows %.3f ms, kept up %v; %d of %d replies match the label",
		ref.Samples, ref.P50Ms, ref.P99Ms, ref.Windows, ref.WinP95, ref.KeptUp(), fr.refRight, fr.refN)
	b.set("throughput", "1/s", fr.capRPS)
	b.set("latency_ms", "ms", ref.P50Ms)
	b.set("latency_tail_ms", "ms", ref.WinP95)
	b.set("accuracy", "ratio", float64(fr.refRight)/float64(fr.refN))
	b.set("alloc_mb", "MB", fr.refAlloc)
	return nil
}
