package main

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunPhaseCountsStallFromDueTime drives a server that stalls one
// request. The ops queued behind the stall must be charged from their due
// time, and the generator lag must show how late they were sent.
func TestRunPhaseCountsStallFromDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 3 {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	// One sender at 100/s for 0.5 s: 50 ops due 10 ms apart. Op 2 stalls
	// for 300 ms, so ops 3..~31 are sent late.
	ph := phase{name: "stall", rate: 100, duration: 500 * time.Millisecond, workers: 1}
	res := runPhase(context.Background(), ph, func(ctx context.Context, i int) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
		if err != nil {
			return err
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return errors.New(resp.Status)
		}
		return nil
	})
	if res.sent != 50 || res.ok != 50 || res.failed != 0 {
		t.Fatalf("sent %d ok %d failed %d, want 50/50/0", res.sent, res.ok, res.failed)
	}
	// Op 3 was due 10 ms after the stalled op 2 started, so it waited
	// about 290 ms before it was sent and its latency includes that wait.
	if res.lag[3] < stall-50*time.Millisecond {
		t.Errorf("op 3 lag %v, want ≥ %v", res.lag[3], stall-50*time.Millisecond)
	}
	if res.latency[3] < res.lag[3] {
		t.Errorf("op 3 latency %v is below its lag %v: not counted from due time", res.latency[3], res.lag[3])
	}
	// A closed-loop timer would report op 3 at service time only (well
	// under 50 ms); from due time it is most of the stall.
	if res.latency[3] < 200*time.Millisecond {
		t.Errorf("op 3 latency %v, want the stall it queued behind", res.latency[3])
	}
	if got := res.lagMS(0.99); got < 200 {
		t.Errorf("lag p99 %.1f ms, want the stall reported", got)
	}
	// Ops due after the backlog drained are on time again.
	if res.lag[49] > 50*time.Millisecond {
		t.Errorf("last op lag %v, want the backlog drained", res.lag[49])
	}
}

// TestRunPhaseFailuresMissLimit checks that failed ops count as missing
// any latency limit and are tallied per phase.
func TestRunPhaseFailuresMissLimit(t *testing.T) {
	ph := phase{name: "fail", rate: 200, duration: 100 * time.Millisecond, workers: 2}
	res := runPhase(context.Background(), ph, func(ctx context.Context, i int) error {
		if i%2 == 0 {
			return errors.New("refused")
		}
		return nil
	})
	if res.sent != 20 || res.ok != 10 || res.failed != 10 {
		t.Fatalf("sent %d ok %d failed %d, want 20/10/10", res.sent, res.ok, res.failed)
	}
	if p := res.latencyMS(0.99); p < 1e300 {
		t.Errorf("p99 %.3f ms, want +Inf from failed ops", p)
	}
}

// TestSaturateStopsAtDurationOrLimit checks the closed-loop phase: ops
// run back to back until the duration ends, or until the op limit.
func TestSaturateStopsAtDurationOrLimit(t *testing.T) {
	op := func(ctx context.Context, i int) error {
		time.Sleep(time.Millisecond)
		return nil
	}
	res := saturate(context.Background(), "sat", 100*time.Millisecond, 2, 1<<20, op)
	if res.failed != 0 || res.ok < 20 || res.ok > 250 {
		t.Errorf("100 ms of 1 ms ops on 2 workers: ok %d failed %d", res.ok, res.failed)
	}
	if g := res.goodput(); g < 200 || g > 2500 {
		t.Errorf("goodput %.0f/s, want about 2 workers / 1 ms", g)
	}
	res = saturate(context.Background(), "sat", time.Minute, 2, 10, op)
	if res.sent != 10 {
		t.Errorf("limit 10: sent %d", res.sent)
	}
}

// TestQuantile checks the interpolated quantile the fast-quartile metrics
// use, and that it leaves its input alone.
func TestQuantile(t *testing.T) {
	xs := []float64{8, 1, 4, 2}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.25, 1.75}, {0.5, 3}, {0.75, 5}, {1, 8},
	} {
		if got := quantile(xs, c.p); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 8 || xs[3] != 2 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(nil) = %v, want 0", got)
	}
}
