package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"remapd/internal/dataset"
	"remapd/internal/remap"
)

// TestHTTPClassify drives the HTTP shell end to end: a POSTed image comes
// back classified with its simulated latency, and malformed requests are
// rejected before touching the scheduler.
func TestHTTPClassify(t *testing.T) {
	cfg := Config{
		BatchMax:  1, // every request is its own batch: no cross-request waits
		BatchWait: 4,
		InC:       3, InH: 16, InW: 16,
	}
	rep, err := NewReplica(ReplicaConfig{Net: testNet(5), Chip: testChip(), Policy: remap.NewRemapD(), FaultSeed: 21}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(cfg, []*Replica{rep})
	if err != nil {
		t.Fatal(err)
	}
	front := NewFront(srv, time.Millisecond)
	front.Start()
	defer front.Close()
	ts := httptest.NewServer(front.Handler())
	defer ts.Close()

	ds := dataset.CIFAR10Like(1, 4, 16, 77)
	body, err := json.Marshal(ClassifyRequest{Image: ds.TestX.Data[:srv.InputLen()]})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cerr := resp.Body.Close(); cerr != nil {
			t.Error(cerr)
		}
	}()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /classify: %s", resp.Status)
	}
	var cr ClassifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	if cr.Class < 0 || cr.Class >= 10 {
		t.Fatalf("class %d out of range", cr.Class)
	}
	if cr.CompletionTick <= cr.ArrivalTick {
		t.Fatalf("completion %d not after arrival %d", cr.CompletionTick, cr.ArrivalTick)
	}

	// Wrong image volume: rejected with 400 before reaching the scheduler.
	bad, err := json.Marshal(ClassifyRequest{Image: []float32{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Post(ts.URL+"/classify", "application/json", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	if cerr := resp2.Body.Close(); cerr != nil {
		t.Error(cerr)
	}
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("short image: got %s, want 400", resp2.Status)
	}
	if got := srv.Stats().Requests; got != 1 {
		t.Fatalf("server saw %d requests, want 1", got)
	}
}

// newTestFront builds an unstarted front over a one-replica server and
// returns it with a valid /classify body.
func newTestFront(t *testing.T, batchMax int) (*Server, *Front, []byte) {
	t.Helper()
	cfg := Config{BatchMax: batchMax, InC: 3, InH: 16, InW: 16}
	rep, err := NewReplica(ReplicaConfig{Net: testNet(5), Chip: testChip(), Policy: remap.NewRemapD(), FaultSeed: 21}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(cfg, []*Replica{rep})
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.CIFAR10Like(1, 4, 16, 77)
	body, err := json.Marshal(ClassifyRequest{Image: ds.TestX.Data[:srv.InputLen()]})
	if err != nil {
		t.Fatal(err)
	}
	return srv, NewFront(srv, time.Hour), body
}

// TestFrontRunsLoneRequestAtOnce: a lone request is flushed as soon as the
// queue drains, not when a partial batch would time out — the hour-long
// wait argument is ignored.
func TestFrontRunsLoneRequestAtOnce(t *testing.T) {
	srv, front, body := newTestFront(t, 8)
	ts := httptest.NewServer(front.Handler())
	defer ts.Close()
	front.Start()
	defer front.Close() // before ts.Close, which waits for every handler

	client := &http.Client{Timeout: 2 * time.Second}
	resp, err := client.Post(ts.URL+"/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if cerr := resp.Body.Close(); cerr != nil {
		t.Error(cerr)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /classify: %s", resp.Status)
	}
	if st := srv.Stats(); st.Requests != 1 || st.Batches != 1 {
		t.Fatalf("served %d requests in %d batches, want 1 in 1", st.Requests, st.Batches)
	}
}

// TestFrontDrainFormsOneBatch: requests already queued when the consumer
// wakes are drained into the same batch.
func TestFrontDrainFormsOneBatch(t *testing.T) {
	srv, front, _ := newTestFront(t, 8)
	ds := dataset.CIFAR10Like(1, 4, 16, 77)
	n := srv.InputLen()
	hrs := make([]*httpReq, 3)
	for i := range hrs {
		hrs[i] = &httpReq{req: &Request{Image: ds.TestX.Data[i*n : (i+1)*n], Label: -1}, done: make(chan struct{})}
		front.ch <- hrs[i]
	}
	front.Start()
	defer front.Close()
	timeout := time.After(2 * time.Second)
	for i, hr := range hrs {
		select {
		case <-hr.done:
		case <-timeout:
			t.Fatalf("request %d not served", i)
		}
	}
	if st := srv.Stats(); st.Requests != 3 || st.Batches != 1 {
		t.Fatalf("served %d requests in %d batches, want 3 in 1", st.Requests, st.Batches)
	}
}

// TestFrontConcurrentClients: concurrent handlers feed the one consumer,
// and every request is answered exactly once.
func TestFrontConcurrentClients(t *testing.T) {
	srv, front, body := newTestFront(t, 4)
	ts := httptest.NewServer(front.Handler())
	defer ts.Close()
	front.Start()
	defer front.Close()

	const clients, each = 8, 4
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 10 * time.Second}
			for i := 0; i < each; i++ {
				resp, err := client.Post(ts.URL+"/classify", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				if cerr := resp.Body.Close(); cerr != nil {
					t.Error(cerr)
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("POST /classify: %s", resp.Status)
				}
			}
		}()
	}
	wg.Wait()
	if got := srv.Stats().Requests; got != clients*each {
		t.Fatalf("server saw %d requests, want %d", got, clients*each)
	}
}

// TestFrontRefusals: an oversized body gets 413 and a full queue gets an
// immediate 503 with Retry-After; neither reaches the scheduler.
func TestFrontRefusals(t *testing.T) {
	srv, front, body := newTestFront(t, 1)
	ts := httptest.NewServer(front.Handler())
	defer ts.Close()
	post := func(b []byte) *http.Response {
		t.Helper()
		client := &http.Client{Timeout: 2 * time.Second}
		resp, err := client.Post(ts.URL+"/classify", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		if cerr := resp.Body.Close(); cerr != nil {
			t.Error(cerr)
		}
		return resp
	}

	// Valid JSON padded with whitespace past the cap.
	huge := append([]byte(`{"image":[`), bytes.Repeat([]byte(" "), int(front.maxBody))...)
	huge = append(huge, `0]}`...)
	if resp := post(huge); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: got %s, want 413", resp.Status)
	}

	// The consumer is not started, so the queue stays full.
	for len(front.ch) < cap(front.ch) {
		front.ch <- &httpReq{req: &Request{}, done: make(chan struct{})}
	}
	resp := post(body)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("full queue: got %s with Retry-After %q, want 503 with Retry-After", resp.Status, resp.Header.Get("Retry-After"))
	}
	if got := front.StatusSection().(FrontStats).Rejected; got != 1 {
		t.Fatalf("rejected counter %d, want 1", got)
	}
	if got := srv.Stats().Requests; got != 0 {
		t.Fatalf("server saw %d requests, want 0", got)
	}
}

// TestFrontCancelledRequestReturns: a handler whose client has gone
// returns without a reply instead of waiting for its batch.
func TestFrontCancelledRequestReturns(t *testing.T) {
	_, front, body := newTestFront(t, 8) // never started: no batch will run
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := httptest.NewRequest(http.MethodPost, "/classify", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	returned := make(chan struct{})
	go func() {
		front.Handler().ServeHTTP(rec, r)
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(2 * time.Second):
		t.Fatal("handler still waiting after its client left")
	}
	if len(front.ch) != 1 {
		t.Fatalf("queue holds %d requests, want the admitted 1", len(front.ch))
	}
	if rec.Body.Len() != 0 || rec.Header().Get("Content-Type") != "" {
		t.Fatalf("cancelled request got a reply: %q", rec.Body.String())
	}
}
