package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ropuf/internal/authserve"
	"ropuf/internal/fleet"
	"ropuf/internal/obs"
)

// The enroll workload: provisioning new devices into an empty durable
// store over the binary enroll wire.
// enrollRefRate is the fixed rate (enrolls/s) latency and CPU are taken at.
const enrollRefRate = 75

// enrollRunner provisions seed-distinct devices, one per op. Each op
// fabricates its device first — the provisioning station's measurement —
// so the inputs never have to sit in memory all at once.
type enrollRunner struct {
	seed  uint64
	next  atomic.Int64 // next unused device index
	ran   atomic.Int64 // enrolls attempted
	c     *client
	mu    sync.Mutex
	acked map[string]int // acknowledged device → usable bits
	fails atomic.Int64
	first atomic.Value // first failure (error)
}

func (e *enrollRunner) id(i int) string { return fmt.Sprintf("e%x-%06d", e.seed, i) }

func (e *enrollRunner) failed(err error) error {
	e.fails.Add(1)
	e.first.CompareAndSwap(nil, err)
	return err
}

// run enrolls device i.
func (e *enrollRunner) run(ctx context.Context, i int) error {
	e.ran.Add(1)
	id := e.id(i)
	devs, err := fleet.Synthetic(1, authPairs, authStages, e.seed*0x9e3779b97f4a7c15+uint64(i))
	if err != nil {
		return e.failed(err)
	}
	body, err := enrollBody(id, devs[0])
	if err != nil {
		return e.failed(err)
	}
	var er authserve.EnrollResponse
	code, err := e.c.post(ctx, "enroll", "/v1/enroll", authserve.EnrollContentTypeBinary, body, &er)
	if err != nil {
		return e.failed(fmt.Errorf("enroll %s: %w", id, err))
	}
	if code != http.StatusOK {
		return e.failed(fmt.Errorf("enroll %s: status %d", id, code))
	}
	if er.ID != id || er.Pairs != authPairs || er.Bits <= 0 || er.Fresh != er.Bits {
		return e.failed(fmt.Errorf("enroll %s: answer %+v", id, er))
	}
	e.mu.Lock()
	e.acked[id] = er.Bits
	e.mu.Unlock()
	return nil
}

func (e *enrollRunner) phase(ctx context.Context, name string, rate float64, d time.Duration) *phaseResult {
	n := int(math.Round(rate * d.Seconds()))
	first := int(e.next.Add(int64(n))) - n
	return runPhase(ctx, phase{name: name, rate: rate, duration: d, workers: runtime.NumCPU()},
		func(ctx context.Context, i int) error { return e.run(ctx, first+i) })
}

func runEnroll(cfg *config, rep *report) error {
	ctx := context.Background()
	R := time.Duration(cfg.seconds) * time.Second
	compact := []string{"-wal-compact-bytes", fmt.Sprint(enrollCompactBytes), "-seed", fmt.Sprint(cfg.seed)}

	// Set-up: empty-store start-to-ready, timed on fresh directories; the
	// last start is the one the load runs against.
	var readies []float64
	var srv *serveProc
	var dataDir string
	for i := 0; i < setupRepeats; i++ {
		dataDir = filepath.Join(cfg.work, fmt.Sprintf("data-%d", i))
		s, ready, err := startServe(cfg.ropuf, dataDir, compact...)
		if err != nil {
			return err
		}
		readies = append(readies, ready.Seconds())
		if i < setupRepeats-1 {
			s.kill()
			if err := os.RemoveAll(dataDir); err != nil {
				return err
			}
		} else {
			srv = s
		}
	}
	defer func() {
		select {
		case <-srv.done:
		default:
			srv.kill()
		}
	}()
	syscall.Sync()
	e := &enrollRunner{seed: cfg.seed, acked: map[string]int{}}
	e.c = newClient(srv.base, runtime.NumCPU(), nil)
	printPhase("enroll", e.phase(ctx, "warmup", enrollRefRate, time.Second))

	var st *servingTrace
	var err error
	if cfg.trace {
		st, err = enrollTraced(ctx, cfg, e, &srv, dataDir, R/2)
	} else {
		err = enrollMeasured(ctx, rep, e, srv, R, readies, dataDir)
	}
	e.c.close()
	if err != nil {
		return err
	}

	// Correctness gates: every op succeeded, and every acknowledged
	// device survives a crash. The restart after SIGKILL proves the WAL
	// replays; it does not prove fsync, because the OS page cache
	// survives a process crash.
	used := e.ran.Load()
	rep.ops(used, e.fails.Load())
	if n := e.fails.Load(); n > 0 {
		rep.fail("%d of %d enrolls failed; first: %v", n, used, e.first.Load())
	}
	srv.kill()
	if rs, _, err := startServe(cfg.ropuf, dataDir, compact...); err != nil {
		rep.fail("restart after SIGKILL: %v", err)
	} else {
		checkAcked(ctx, rep, rs, e.acked)
		if err := rs.interrupt(); err != nil {
			rep.fail("final drain: %v", err)
		}
	}
	if cfg.trace {
		if err := st.report(rep, filepath.Join(cfg.traceDir, fmt.Sprintf("enroll-%d-client.jsonl", cfg.seed))); err != nil {
			return err
		}
		if err := probeLayers(cfg.seed, cfg.work, rep); err != nil {
			return err
		}
	}
	finishMetrics(rep, cfg.trace)
	return nil
}

// checkAcked reads back every acknowledged device after the crash.
func checkAcked(ctx context.Context, rep *report, srv *serveProc, acked map[string]int) {
	c := newClient(srv.base, runtime.NumCPU(), nil)
	defer c.close()
	ids := make([]string, 0, len(acked))
	for id := range acked {
		ids = append(ids, id)
	}
	var missing atomic.Int64
	var first atomic.Value
	_ = parallel(len(ids), func(i int) error {
		var d authserve.DeviceResponse
		code, err := c.getJSON(ctx, "device", "/v1/devices/"+ids[i], &d)
		if err != nil || code != http.StatusOK || d.Bits != acked[ids[i]] || d.Fresh != d.Bits || d.Pairs != authPairs {
			missing.Add(1)
			first.CompareAndSwap(nil, fmt.Sprintf("%s: status %d, %+v, %v", ids[i], code, d, err))
		}
		return nil
	})
	fmt.Printf("enroll   crash check: %d of %d acknowledged devices readable after SIGKILL and restart\n",
		int64(len(ids))-missing.Load(), len(ids))
	if n := missing.Load(); n > 0 {
		rep.fail("%d of %d acknowledged devices unreadable after SIGKILL and restart; first %v", n, len(ids), first.Load())
	}
}

// enrollMeasured is the untraced run: the reference phase, then the
// saturation phase.
func enrollMeasured(ctx context.Context, rep *report, e *enrollRunner, srv *serveProc,
	R time.Duration, readies []float64, dataDir string) error {
	// Unlike auth, the phases run one after the other: a saturation chunk
	// leaves compaction work behind that would land in the next
	// reference chunk's CPU.
	cpu0, err := srv.cpu()
	if err != nil {
		return err
	}
	ref := e.phase(ctx, "reference", enrollRefRate, refDuration(R))
	cpu1, err := srv.cpu()
	if err != nil {
		return err
	}
	printPhase("enroll", ref)
	first := int(e.next.Load()) // the last phase: no later phase needs next
	sat := saturate(ctx, "saturation", R/4, runtime.NumCPU(), math.MaxInt32,
		func(ctx context.Context, i int) error { return e.run(ctx, first+i) })
	printPhase("enroll", sat)
	m, err := srv.metrics(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("enroll   compactions %.0f over the run (-wal-compact-bytes %d)\n", m["ropuf_authserve_wal_compactions_total"], enrollCompactBytes)
	heapBytes, err := restingHeap(ctx, srv)
	if err != nil {
		return err
	}
	disk, err := dirBytes(dataDir)
	if err != nil {
		return err
	}
	devices := float64(len(e.acked))
	rep.set("setup_s", median(readies), "s", fmt.Sprintf("median of %d empty-store starts", len(readies)))
	latencies(rep, ref, fmt.Sprintf("%d enrolls/s", enrollRefRate))
	rep.set("goodput_ops_s", sat.goodput(), "1/s", fmt.Sprintf("enrolls completed per second, %d connections back to back", runtime.NumCPU()))
	rep.set("cpu_ms_per_op", msPerOp(cpu1-cpu0, ref.ok), "ms", fmt.Sprintf("server CPU over %d enrolls", ref.ok))
	rep.set("heap_bytes_per_device", heapBytes/devices, "bytes", fmt.Sprintf("%.0f bytes live after GC / %.0f devices", heapBytes, devices))
	rep.set("disk_bytes_per_device", float64(disk)/devices, "bytes", fmt.Sprintf("%d bytes / %.0f devices", disk, devices))
	return nil
}

// enrollTraced runs an untraced leg, then a traced leg on the same store
// restarted with -trace-out.
func enrollTraced(ctx context.Context, cfg *config, e *enrollRunner, srvp **serveProc, dataDir string,
	leg time.Duration) (*servingTrace, error) {
	st := &servingTrace{}
	var err error
	srv := *srvp
	st.untraced, st.cpuU, st.u0, st.u1, err = measuredLeg(ctx, srv, func() (*phaseResult, error) {
		return e.phase(ctx, "untraced", enrollRefRate, leg), nil
	})
	if err != nil {
		return nil, err
	}
	printPhase("enroll", st.untraced)
	if _, st.heapObjects, err = srv.heap(ctx); err != nil {
		return nil, err
	}
	st.devices = len(e.acked)
	if err := srv.interrupt(); err != nil {
		return nil, err
	}
	d, n, err := timeStoreOpen(dataDir)
	if err != nil {
		return nil, err
	}
	st.storeOpen, st.storeOpenNote = d, fmt.Sprintf("authserve.Open of the %d-device store after the untraced leg", n)
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return nil, err
	}
	st.serverFile = filepath.Join(cfg.traceDir, fmt.Sprintf("enroll-%d-server.jsonl", cfg.seed))
	srv, _, err = startServe(cfg.ropuf, dataDir, "-wal-compact-bytes", fmt.Sprint(enrollCompactBytes),
		"-seed", fmt.Sprint(cfg.seed), "-trace-out", st.serverFile)
	if err != nil {
		return nil, err
	}
	*srvp = srv
	sink := &memSink{}
	e.c.close()
	e.c = newClient(srv.base, runtime.NumCPU(), obs.NewTracer(sink, obs.WithService("perfbench")))
	st.c = e.c
	e.phase(ctx, "warmup", enrollRefRate, time.Second)
	sink.take()
	e.c.resetTrace()
	st.traced, st.cpuT, st.t0, st.t1, err = measuredLeg(ctx, srv, func() (*phaseResult, error) {
		return e.phase(ctx, "traced", enrollRefRate, leg), nil
	})
	if err != nil {
		return nil, err
	}
	printPhase("enroll", st.traced)
	st.clientSpans = sink.take()
	return st, nil
}
