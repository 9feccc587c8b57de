package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sensornet/internal/dist"
	"sensornet/internal/engine"
)

// loseDoneAck is a worker transport that loses the first result
// acknowledgment telling the worker the campaign is done: the
// coordinator has processed the post, the worker sees a transport error.
type loseDoneAck struct {
	lost atomic.Int64
}

func (l *loseDoneAck) RoundTrip(req *http.Request) (*http.Response, error) {
	res, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || req.URL.Path != dist.PathResult {
		return res, err
	}
	data, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		return nil, err
	}
	var ack dist.ResultResponse
	if json.Unmarshal(data, &ack) == nil && ack.Done && l.lost.CompareAndSwap(0, 1) {
		return nil, errors.New("injected fault: the final result acknowledgment was lost")
	}
	res.Body = io.NopCloser(bytes.NewReader(data))
	return res, nil
}

// TestCoordinatorOutlastsLostFinalAck: a worker whose last result
// acknowledgment is lost retries the post after the campaign is done.
// The coordinator still listens for that retry, whose duplicate ack says
// Done, so the worker exits cleanly; it retries only twice here, so the
// coordinator's wait after Done must cover the worker's first retries.
func TestCoordinatorOutlastsLostFinalAck(t *testing.T) {
	var jobs []engine.Job
	for i := range 3 {
		jobs = append(jobs, engine.JobFunc{
			Key:      "job-" + strconv.Itoa(i),
			Fn:       func(context.Context) (any, error) { return 1.5, nil },
			EncodeFn: func(v any) ([]byte, error) { return json.Marshal(v) },
		})
	}
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	coordErr := make(chan error, 1)
	go func() {
		coordErr <- runCoordinator(ctx, "127.0.0.1:0", addrFile, engine.NewCache(dir, "test"),
			distConfig{jobs: jobs, ttl: 2 * time.Second}, io.Discard)
	}()
	var addr string
	for addr == "" {
		select {
		case err := <-coordErr:
			t.Fatalf("coordinator exited before publishing its address: %v", err)
		case <-time.After(10 * time.Millisecond):
		}
		if data, err := os.ReadFile(addrFile); err == nil && strings.HasSuffix(string(data), "\n") {
			addr = strings.TrimSpace(string(data))
		}
	}

	transport := &loseDoneAck{}
	w, err := dist.NewWorker(dist.WorkerConfig{
		ID:           "w1",
		BaseURL:      "http://" + addr,
		Engine:       engine.New(engine.Config{Workers: 1}),
		Jobs:         jobs,
		Client:       &http.Client{Timeout: 10 * time.Second, Transport: transport},
		PostAttempts: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := w.Run(ctx)
	if err != nil {
		t.Fatalf("worker exited with %v after a lost final ack; want a clean exit", err)
	}
	if transport.lost.Load() != 1 || rep.Completed != len(jobs) {
		t.Fatalf("lost %d acks, report %+v; want the final ack lost and every job completed", transport.lost.Load(), rep)
	}
	if err := <-coordErr; err != nil {
		t.Fatalf("coordinator: %v", err)
	}
}
