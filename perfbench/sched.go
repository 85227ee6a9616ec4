package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// phase is one open-loop load phase: ops are due at a constant rate, one
// every 1/rate seconds from the phase start, whether or not earlier ops
// have finished.
type phase struct {
	name     string
	rate     float64       // ops per second
	duration time.Duration // schedule length; ops due = rate × duration
	workers  int           // concurrent senders (and connections)
}

// phaseResult is what one phase measured. Latency is counted from each
// op's due time, not from when a worker got to it, so a stall charges
// its wait to every op queued behind it (the coordinated-omission
// correction); lag is how late the generator started each op.
type phaseResult struct {
	name      string
	rate      float64
	scheduled time.Duration
	elapsed   time.Duration // phase start to the last op's completion
	sent      int64
	ok        int64
	failed    int64
	latency   []time.Duration // per op, due → completion; failed ops are +Inf
	lag       []time.Duration // per op, due → start
}

// failedLatency stands in for a failed op's latency: a failure counts as
// missing any latency limit.
const failedLatency = time.Duration(math.MaxInt64)

// runPhase drives op through one open-loop phase. op(ctx, i) performs the
// i-th operation of the phase and reports whether it succeeded; it must
// not retain ctx past its return. The phase stops early only if ctx is
// cancelled.
func runPhase(ctx context.Context, ph phase, op func(ctx context.Context, i int) error) *phaseResult {
	n := int(math.Round(ph.rate * ph.duration.Seconds()))
	interval := time.Duration(float64(time.Second) / ph.rate)
	res := &phaseResult{
		name:      ph.name,
		rate:      ph.rate,
		scheduled: ph.duration,
		latency:   make([]time.Duration, n),
		lag:       make([]time.Duration, n),
	}
	var next atomic.Int64
	var sent, ok, failed atomic.Int64
	runtime.GC() // so the generator's own collection does not start mid-phase
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < max(ph.workers, 1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					t := time.NewTimer(d)
					select {
					case <-t.C:
					case <-ctx.Done():
						t.Stop()
						return
					}
				}
				began := time.Now()
				res.lag[i] = began.Sub(due)
				sent.Add(1)
				err := op(ctx, i)
				if err != nil {
					failed.Add(1)
					res.latency[i] = failedLatency
					continue
				}
				ok.Add(1)
				res.latency[i] = time.Since(due)
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.sent, res.ok, res.failed = sent.Load(), ok.Load(), failed.Load()
	res.latency = res.latency[:res.sent]
	res.lag = res.lag[:res.sent]
	return res
}

// saturate sends ops back to back on workers goroutines for d — each
// worker starts its next op as soon as its last one completes — so the
// completion rate is the system's capacity at that concurrency. It stops
// early after limit ops; op(ctx, i) is called with i < limit.
func saturate(ctx context.Context, name string, d time.Duration, workers, limit int, op func(ctx context.Context, i int) error) *phaseResult {
	res := &phaseResult{name: name, scheduled: d}
	var next atomic.Int64
	var mu sync.Mutex
	runtime.GC()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < max(workers, 1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat []time.Duration
			var ok, failed int64
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= limit {
					break
				}
				t0 := time.Now()
				if err := op(ctx, i); err != nil {
					failed++
					lat = append(lat, failedLatency)
					continue
				}
				ok++
				lat = append(lat, time.Since(t0))
			}
			mu.Lock()
			res.latency = append(res.latency, lat...)
			res.ok += ok
			res.failed += failed
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.sent = res.ok + res.failed
	res.rate = float64(res.sent) / res.elapsed.Seconds()
	return res
}

// mergePhases joins the chunks of one phase: ops and latencies in order,
// counts and times summed.
func mergePhases(rs []*phaseResult) *phaseResult {
	m := &phaseResult{name: rs[0].name}
	for _, r := range rs {
		m.scheduled += r.scheduled
		m.elapsed += r.elapsed
		m.sent += r.sent
		m.ok += r.ok
		m.failed += r.failed
		m.latency = append(m.latency, r.latency...)
		m.lag = append(m.lag, r.lag...)
	}
	m.rate = float64(m.sent) / m.scheduled.Seconds()
	return m
}

// latencyMS returns the p-quantile of the phase's latencies in ms
// (+Inf when it falls on a failed op).
func (r *phaseResult) latencyMS(p float64) float64 {
	return quantileMS(r.latency, p)
}

// windowSize is the number of ops per window of windowedMS.
const windowSize = 250

// windowedMS splits the phase, in due order, into windows of windowSize
// ops (one window if the phase is shorter) and returns the lower quartile
// over the windows of each window's latency p-quantile. Other tenants of
// a shared host only ever slow a window, so the fast quartile follows the
// program, not the host, as long as a quarter of the windows ran
// undisturbed.
func (r *phaseResult) windowedMS(p float64) float64 {
	return quantile(r.perWindowMS(p), 0.25)
}

// perWindowMS returns each window's latency p-quantile in ms.
func (r *phaseResult) perWindowMS(p float64) []float64 {
	k := max(len(r.latency)/windowSize, 1)
	per := make([]float64, k)
	for w := range per {
		lo, hi := w*len(r.latency)/k, (w+1)*len(r.latency)/k
		per[w] = quantileMS(r.latency[lo:hi], p)
	}
	return per
}

// windows is how many windows windowedMS uses.
func (r *phaseResult) windows() int { return max(len(r.latency)/windowSize, 1) }

// lagMS returns the p-quantile of the generator lag in ms.
func (r *phaseResult) lagMS(p float64) float64 {
	return quantileMS(r.lag, p)
}

// goodput is completed-ok ops per second over the phase's wall time.
func (r *phaseResult) goodput() float64 {
	return float64(r.ok) / r.elapsed.Seconds()
}

// backlog is how far the last completion trailed the end of the schedule
// (or of the saturation phase's duration):
// near zero when the system keeps up, growing with the phase when it
// does not.
func (r *phaseResult) backlog() time.Duration {
	return max(r.elapsed-r.scheduled, 0)
}

func quantileMS(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	i := min(max(int(math.Ceil(p*float64(len(s))))-1, 0), len(s)-1)
	if s[i] == failedLatency {
		return math.Inf(1)
	}
	return float64(s[i]) / float64(time.Millisecond)
}

// printPhase prints one phase's counts, latency and generator lag.
func printPhase(workload string, r *phaseResult) {
	fmt.Printf("%-8s phase %-12s rate %7.1f/s sent %6d ok %6d failed %3d  p50 %.3f ms p99 %.3f ms (n=%d)  window p50s %.3f  lag p99 %.3f ms  backlog %v  goodput %.1f/s\n",
		workload, r.name, r.rate, r.sent, r.ok, r.failed, r.latencyMS(0.5), r.latencyMS(0.99), len(r.latency),
		r.perWindowMS(0.5), r.lagMS(0.99), r.backlog().Round(time.Microsecond), r.goodput())
}
