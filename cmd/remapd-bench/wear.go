package main

import (
	"context"
	"fmt"
	"time"

	"remapd/internal/serve"
)

const (
	wearChips    = 2    // the serving pool's chip count
	wearRequests = 4096 // requests per timed drive
	// Drive k serves traffic and manufacturing faults seeded
	// derivedSeed(--seed, k mod wearSeeds), so the run's accuracy averages
	// wearSeeds fault and traffic draws; minDrives makes at least one
	// drive a replay.
	wearSeeds = 3
	minDrives = wearSeeds + 1
	// tailWindowBatches is the batch count of one window of the tail: the
	// fewest that back a p99 with ten beyond it. About 2% of batches run a
	// BIST scan and maintenance, so the p99 measures those; the median
	// over windows keeps a few ms of host stall in one window from
	// deciding it (a whole-run p99 spread 0.24 over ten runs).
	tailWindowBatches = 1000
	// wearAccMargin is how far below the checkpoint's trained accuracy the
	// wear-free pool may serve: the chips still carry their manufacturing
	// faults, which cost up to 0.07 on the seeds tried (chance is 0.10).
	wearAccMargin = 0.15
)

// wearRecord is a drive's deterministic outcome on a given seed.
type wearRecord struct {
	correct  int    // requests classified correctly, out of wearRequests
	p99Ticks uint64 // exact p99 of Completion − Arrival

	// Counters from the server's Stats().
	batches, scans, swaps, wearFaults int64
}

// recordedWear holds the first drive's outcome for the default and
// held-out seeds. A change that moves any of these changed what serving
// computes, not how fast.
var recordedWear = map[uint64]wearRecord{
	defaultSeed: {1349, 548, 613, 14, 171, 16038},
	heldOutSeed: {1503, 549, 614, 15, 177, 18022},
}

// drive serves reqs through srv with Submit and a final Flush — the
// deterministic driver path — and returns the wall time it took.
func drive(srv *serve.Server, reqs []*serve.Request) float64 {
	wall, _ := driveTimed(srv, reqs)
	return wall
}

// driveTimed is drive that also returns the host time, in ms, of every
// Submit or Flush call that executed a batch: the call after which the
// oldest request still waiting has completed. That is how long a sealed
// batch takes to serve on the host, BIST and maintenance included.
func driveTimed(srv *serve.Server, reqs []*serve.Request) (float64, []float64) {
	var batches []float64
	oldest := 0 // the first request not yet completed
	settle := func(upto int, d time.Duration) {
		if oldest < upto && reqs[oldest].Completion != 0 {
			batches = append(batches, float64(d)/1e6)
			for oldest < upto && reqs[oldest].Completion != 0 {
				oldest++
			}
		}
	}
	//lint:allow no-wall-clock benchmark harness: drive wall time is the measured metric
	start := time.Now()
	for i, r := range reqs {
		//lint:allow no-wall-clock benchmark harness: batch service time is the measured metric
		t0 := time.Now()
		srv.Submit(r)
		//lint:allow no-wall-clock benchmark harness: batch service time is the measured metric
		settle(i+1, time.Since(t0))
	}
	//lint:allow no-wall-clock benchmark harness: batch service time is the measured metric
	t0 := time.Now()
	srv.Flush()
	//lint:allow no-wall-clock benchmark harness: batch service time is the measured metric
	settle(len(reqs), time.Since(t0))
	//lint:allow no-wall-clock benchmark harness: drive wall time is the measured metric
	return time.Since(start).Seconds(), batches
}

// runServeWear measures the wearing 2-chip pool: fresh pools built from
// the checkpoint, each driven through seeded traffic, until the next drive
// would overrun --seconds, and at least minDrives; every drive repeats the
// first drive of its seed exactly. Throughput is the median drive's
// requests per second; latency is the host time of the calls that
// executed a batch: the median, and for the tail the median p99 of
// tailWindowBatches-batch windows; accuracy is the mean over the
// wearSeeds seeds' first drives.
func runServeWear(ctx context.Context, b *bench) error {
	ck, err := timeSetup(b, func() (*checkpoint, error) { return trainCheckpoint(b.seed) })
	if err != nil {
		return err
	}
	b.logf("checkpoint: trained test accuracy %.4f", ck.trainAcc)

	// The same pool with wear off must serve the checkpoint's accuracy:
	// this proves the served weights are the trained ones.
	calm, err := buildPool(ck, b.seed, poolOptions{chips: wearChips})
	if err != nil {
		return err
	}
	calmReqs := trafficRequests(ck.ds, b.seed, wearRequests)
	drive(calm.srv, calmReqs)
	calmOut, err := outcomeOf(calmReqs)
	if err != nil {
		return err
	}
	b.logf("wear off: served accuracy %.4f", calmOut.acc)
	b.check(calmOut.acc >= ck.trainAcc-wearAccMargin,
		"wear-free pool serves %.4f, checkpoint trained to %.4f (margin %.2f)", calmOut.acc, ck.trainAcc, wearAccMargin)

	if b.trace {
		return traceServeWear(ctx, b, ck)
	}
	var rps, allocs, batchMs, accs []float64
	type replay struct {
		out   driveOutcome
		stats string
	}
	firsts := map[uint64]replay{}
	//lint:allow no-wall-clock benchmark harness: bounds the timed phase by --seconds
	begin := time.Now()
	for k := 0; ; k++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		seed := derivedSeed(b.seed, k%wearSeeds)
		pool, err := buildPool(ck, seed, poolOptions{chips: wearChips, wear: true})
		if err != nil {
			return err
		}
		reqs := trafficRequests(ck.ds, seed, wearRequests)
		a0 := allocMB()
		wall, batches := driveTimed(pool.srv, reqs)
		allocs = append(allocs, allocMB()-a0)
		batchMs = append(batchMs, batches...)
		rps = append(rps, float64(len(reqs))/wall)
		b.attempted += int64(len(reqs))
		out, err := outcomeOf(reqs)
		if err != nil {
			b.failed += int64(len(reqs))
			return err
		}
		st := pool.srv.Stats()
		stats := fmt.Sprintf("%+v", st)
		if first, ok := firsts[seed]; ok {
			b.check(stats == first.stats, "drive %d Stats() differ from the first seed %d drive's", k+1, seed)
			b.check(out == first.out, "drive %d served different classes or ticks than the first seed %d drive", k+1, seed)
		} else {
			firsts[seed] = replay{out, stats}
			accs = append(accs, out.acc)
			b.logf("drive %d (seed %d): %d requests, accuracy %.4f, p99 %d ticks, %d batches, %d BIST scans, %d online swaps, %d wear faults",
				k+1, seed, len(reqs), out.acc, out.p99Ticks, st.Batches, st.BISTScans, st.OnlineSwaps, st.WearFaults)
			b.check(st.OnlineSwaps >= 1, "no online swap in %d requests", len(reqs))
			b.check(int64(len(batches)) == st.Batches, "timed %d batch-executing calls, Stats() counts %d batches", len(batches), st.Batches)
			// Outcomes are recorded for a checkpoint trained from the
			// same seed as the traffic and faults.
			if want, ok := recordedWear[seed]; ok && seed == b.seed {
				got := wearRecord{out.correct, out.p99Ticks, st.Batches, st.BISTScans, st.OnlineSwaps, st.WearFaults}
				b.check(got == want, "drive outcome %+v, recorded %+v", got, want)
			}
		}
		//lint:allow no-wall-clock benchmark harness: bounds the timed phase by --seconds
		if k+1 >= minDrives && time.Since(begin).Seconds()+wall > b.seconds {
			break
		}
	}
	tail, windows, ok := windowedPercentile(batchMs, 0.99, tailWindowBatches)
	if !ok {
		return fmt.Errorf("%d batches are too few for a p99", len(batchMs))
	}
	b.logf("%d drives, rps %.1f, median %.1f; %d batches, service p50 %.3f ms, median p99 of %d windows %.3f ms",
		len(rps), rps, median(rps), len(batchMs), median(batchMs), windows, tail)
	b.set("throughput", "1/s", median(rps))
	b.set("latency_ms", "ms", median(batchMs))
	b.set("latency_tail_ms", "ms", tail)
	b.set("accuracy", "ratio", sum(accs)/float64(len(accs)))
	b.set("alloc_mb", "MB", median(allocs))
	return nil
}
