package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"
)

// This file is the HTTP shell around the deterministic Server core. The
// core is clocked by request-arrival ticks; the shell maps live traffic
// onto that clock with a monotonic arrival counter. The shell is
// work-conserving: its single consumer takes one request, drains whatever
// else is already queued into the same batch and flushes at once, so no
// request waits on a timer and batch size follows the live backlog. The
// deterministic-replay guarantee is claimed for the driver path
// (Traffic/Drive), not for concurrent HTTP load — batch boundaries depend
// on arrival timing, though a reply's class does not — but every HTTP
// request still flows through the same scheduler, wear and maintenance
// machinery.

const (
	// queueSlots bounds admission: once this many requests wait for the
	// consumer, further ones are refused with 503 instead of stalling
	// their handlers. It holds several BatchMax-sized batches of backlog.
	queueSlots = 64
	// bytesPerValue bounds one image value in a /classify body. Even a
	// float64-precision JSON number is at most 24 bytes
	// ("-2.2250738585072014e-308"); the rest is room for a separator and
	// whitespace.
	bytesPerValue = 32
	// bodySlack covers the braces, the keys and the label.
	bodySlack = 4 << 10
)

// ClassifyRequest is the POST /classify body.
type ClassifyRequest struct {
	// Image is the C·H·W input in dataset layout.
	Image []float32 `json:"image"`
	// Label optionally carries ground truth so live traffic feeds the
	// accuracy-drift gauges. Omitted means unknown.
	Label *int `json:"label,omitempty"`
}

// ClassifyResponse is the POST /classify reply.
type ClassifyResponse struct {
	Class          int    `json:"class"`
	ArrivalTick    uint64 `json:"arrival_tick"`
	CompletionTick uint64 `json:"completion_tick"`
	LatencyTicks   uint64 `json:"latency_ticks"`
}

// FrontStats is the HTTP front's /status section.
type FrontStats struct {
	// Rejected counts requests refused with 503 because the queue was
	// full.
	Rejected int64 `json:"rejected"`
}

type httpReq struct {
	req  *Request
	done chan struct{}
}

// Front serialises HTTP requests onto the Server's simulated arrival
// clock through a single consumer goroutine. Each round it submits one
// request, drains the requests already queued behind it up to BatchMax,
// and flushes, so a lone request runs at once and the requests that queue
// while a batch runs become the next batch.
type Front struct {
	srv      *Server
	ch       chan *httpReq
	maxBody  int64
	rejected atomic.Int64
	stop     chan struct{}
	stopped  chan struct{}
}

// NewFront wraps srv.
//
// Deprecated: wait is ignored. The front flushes as soon as its queue
// drains, not on a wall-clock ticker; pass 0.
func NewFront(srv *Server, wait time.Duration) *Front {
	return &Front{
		srv:     srv,
		ch:      make(chan *httpReq, queueSlots),
		maxBody: int64(srv.InputLen())*bytesPerValue + bodySlack,
		stop:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
}

// Start launches the consumer loop.
func (f *Front) Start() { go f.loop() }

// Close stops the consumer loop, draining and completing any queued
// requests first.
func (f *Front) Close() {
	close(f.stop)
	<-f.stopped
}

// StatusSection is the /status registry hook ("http" section).
func (f *Front) StatusSection() interface{} {
	return FrontStats{Rejected: f.rejected.Load()}
}

func (f *Front) loop() {
	defer close(f.stopped)
	var arrival uint64
	batch := make([]*httpReq, 0, f.srv.cfg.BatchMax)
	submit := func(hr *httpReq) {
		arrival++
		hr.req.Arrival = arrival
		f.srv.Submit(hr.req)
		batch = append(batch, hr)
	}
	for {
		select {
		case hr := <-f.ch:
			submit(hr)
		case <-f.stop:
			select {
			case hr := <-f.ch: // Close still serves what is queued
				submit(hr)
			default:
				return
			}
		}
	drain:
		for len(batch) < f.srv.cfg.BatchMax {
			select {
			case hr := <-f.ch:
				submit(hr)
			default:
				break drain
			}
		}
		// Submit sealed every full batch; Flush seals the rest, so every
		// request taken this round is complete.
		f.srv.Flush()
		for _, hr := range batch {
			close(hr.done)
		}
		batch = batch[:0]
	}
}

// Handler returns the service mux: POST /classify plus a liveness probe.
func (f *Front) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/classify", f.handleClassify)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		_, err := fmt.Fprintln(w, "ok")
		_ = err // best-effort liveness reply
	})
	return mux
}

func (f *Front) handleClassify(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var cr ClassifyRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, f.maxBody)).Decode(&cr); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("body exceeds %d bytes", tooBig.Limit), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(cr.Image) != f.srv.InputLen() {
		http.Error(w, fmt.Sprintf("image must have %d values, got %d", f.srv.InputLen(), len(cr.Image)), http.StatusBadRequest)
		return
	}
	req := &Request{Image: cr.Image, Label: -1}
	if cr.Label != nil {
		req.Label = *cr.Label
	}
	hr := &httpReq{req: req, done: make(chan struct{})}
	select {
	case f.ch <- hr:
	case <-f.stop:
		http.Error(w, "server shutting down", http.StatusServiceUnavailable)
		return
	default:
		f.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "request queue full", http.StatusServiceUnavailable)
		return
	}
	select {
	case <-hr.done:
	case <-r.Context().Done():
		// The client left. The request still runs when its batch does;
		// nobody reads the reply.
		return
	case <-f.stopped:
		http.Error(w, "server shutting down", http.StatusServiceUnavailable)
		return
	}
	resp := ClassifyResponse{
		Class:          req.Class,
		ArrivalTick:    req.Arrival,
		CompletionTick: req.Completion,
		LatencyTicks:   req.Completion - req.Arrival,
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
