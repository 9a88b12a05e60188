package main

import (
	"math"

	"remapd/internal/tensor"
)

// This file holds the pure parts of the open-loop HTTP load generator: the
// seeded arrival schedule and the verdict on a rung, one open-loop run at
// a fixed rate. They take plain numbers (seconds since the rung started)
// so the unit tests exercise them without a server.

// tailWindow is the request count of one window of the open loop's tail
// latency: four seconds at the reference rate, with twenty samples beyond
// its p95. A p99 over the whole run, or over 1000-request windows, moved
// with the host: on a shared 2-core machine one noisy run in five read
// 40 ms against a median of 26 ms. The median of the windows' p95s still
// rises with every request a slow edge delays, but not with one stall.
const tailWindow = 400

// poissonSchedule returns n due times (seconds from the rung's start) of a
// Poisson process of the given rate: exponential gaps drawn from rng. The
// same seed gives the same schedule.
func poissonSchedule(rate float64, n int, rng *tensor.RNG) []float64 {
	due := make([]float64, n)
	t := 0.0
	for i := range due {
		t += -math.Log(1-rng.Float64()) / rate
		due[i] = t
	}
	return due
}

// backlogAt counts requests due by t that had not completed by t. done
// holds completion times (+Inf for a request that never completed).
func backlogAt(due, done []float64, t float64) int {
	n := 0
	for i, d := range due {
		if d <= t && done[i] > t {
			n++
		}
	}
	return n
}

// backlogGrowing reports whether the rung's backlog grew over its send
// window: the backlog at the window's end exceeds the backlog at its middle
// by more than 5% of the rung's requests (and by at least 3). Below
// capacity the backlog fluctuates around a constant; past it the backlog
// grows linearly, gaining half the shortfall over the second half.
func backlogGrowing(due, done []float64) bool {
	if len(due) == 0 {
		return false
	}
	end := due[len(due)-1]
	mid, last := backlogAt(due, done, end/2), backlogAt(due, done, end)
	slack := int(0.05 * float64(len(due)))
	if slack < 3 {
		slack = 3
	}
	return last-mid > slack
}

// rungResult is the verdict on one open-loop run at a fixed rate.
type rungResult struct {
	Rate    float64 // offered requests per second
	Sent    int     // requests put on the wire
	Failed  int     // missed: refused, errored or never sent (abandoned backlog)
	Errors  int     // sent requests that were refused or errored
	P50Ms   float64 // median latency from due time
	P99Ms   float64 // p99 latency from due time (valid only if HasP99)
	HasP99  bool    // enough samples beyond p99 to report it
	WinP95  float64 // median of the p95s of consecutive tailWindow-request windows, ms
	Windows int     // how many windows WinP95 is the median of (0: too few requests)
	Growing bool    // backlog grew over the send window
	Samples int     // latency samples, one per scheduled request
	LagP99  float64 // p99 of how late the generator released requests, ms
}

// KeptUp reports whether the server kept up with the offered rate: a
// reportable p99, no failed or missed request, and no growing backlog.
func (r rungResult) KeptUp() bool {
	return r.HasP99 && r.Failed == 0 && !r.Growing
}

// judgeRung turns one rung's raw timings into its verdict. due and done
// are seconds from the rung's start (done is +Inf for a request that
// failed, was refused, or was never sent); lag is how late the generator
// released each sent request, in seconds.
func judgeRung(rate float64, due, done, lag []float64, sent, failed int) rungResult {
	lat := make([]float64, len(due))
	for i := range due {
		lat[i] = (done[i] - due[i]) * 1e3 // +Inf stays +Inf: a miss
	}
	r := rungResult{Rate: rate, Sent: sent, Failed: failed, Samples: len(lat)}
	r.P50Ms = median(lat)
	r.P99Ms, r.HasP99 = percentile(lat, 0.99)
	r.WinP95, r.Windows, _ = windowedPercentile(lat, 0.95, tailWindow)
	r.Growing = backlogGrowing(due, done)
	lagMs := make([]float64, len(lag))
	for i, l := range lag {
		lagMs[i] = l * 1e3
	}
	r.LagP99, _ = percentile(lagMs, 0.99)
	return r
}
