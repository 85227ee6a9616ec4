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

	"ropuf/internal/auth"
	"ropuf/internal/authserve"
	"ropuf/internal/bits"
	"ropuf/internal/core"
	"ropuf/internal/fleet"
	"ropuf/internal/obs"
	"ropuf/internal/rngx"
)

// The auth workload: challenge–response sessions against a fleet restored
// from shard snapshots.
const (
	authPairs  = 128 // PUF pairs per device
	authStages = 13  // ring stages per pair
	authK      = 16  // challenge length
	// authNoisePS is the re-measurement noise between enrollment and
	// authentication (the loadgen default).
	authNoisePS = 2
	// impostorEvery makes one session in this many an impostor: another
	// enrolled device answers the challenge with its own silicon.
	impostorEvery = 10
	// authSessionsPerDevice caps how many sessions one device serves in a
	// run. Devices are drawn in seeded permutation rounds, so each is
	// uniform per session yet none exhausts its pairs or trips the abuse
	// scorer's exhaustion rule (fresh pairs below the window's drain).
	authSessionsPerDevice = 3
	authMinDevices        = 1024
	// authTolerance is the serve default; the client recomputes verdicts
	// with it.
	authTolerance = 0.10
	// authRefRate is the fixed reference rate (sessions/s) the latency and
	// CPU metrics are taken at. authSaturationCap bounds the sessions the
	// saturation phase may use, per second of it; it only shortens the
	// phase of a faster service, it does not cap the measured rate.
	authRefRate       = 300
	authSaturationCap = 2500
	// setupRepeats is how many times set-up is timed; setup_s is the median.
	setupRepeats = 3
)

// authServeArgs are the auth workload's serve flags; seed seeds the
// server's challenge draws.
func authServeArgs(seed uint64) []string {
	return []string{"-wal-compact-bytes", fmt.Sprint(authCompactBytes), "-seed", fmt.Sprint(seed)}
}

// authLimitBits is the largest accepted Hamming distance, computed the
// way the verifier does.
func authLimitBits() int {
	tol, k := authTolerance, authK
	return int(tol * float64(k))
}

// authFleet is the generated input of one auth run.
type authFleet struct {
	ids     []string
	devices []fleet.Device
	provers []*auth.Prover
}

func fabricateAuthFleet(seed uint64, n int) (*authFleet, error) {
	devices, err := fleet.Synthetic(n, authPairs, authStages, seed)
	if err != nil {
		return nil, err
	}
	f := &authFleet{ids: make([]string, n), devices: devices, provers: make([]*auth.Prover, n)}
	err = parallel(n, func(i int) error {
		f.ids[i] = fmt.Sprintf("a%x-%05d", seed, i)
		enr, err := core.Enroll(devices[i].Pairs, core.Case2, 0, core.Options{})
		if err != nil {
			return fmt.Errorf("enroll %s locally: %w", f.ids[i], err)
		}
		f.provers[i] = &auth.Prover{Enrollment: enr}
		return nil
	})
	return f, err
}

// parallel runs fn(0..n-1) on one goroutine per CPU and returns the first
// error.
func parallel(n int, fn func(i int) error) error {
	var next atomic.Int64
	var mu sync.Mutex
	var first error
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// enrollBody encodes one device's enroll request on the binary wire.
func enrollBody(id string, d fleet.Device) ([]byte, error) {
	req := authserve.EnrollRequest{ID: id, Mode: "case2", Pairs: make([]authserve.PairWire, len(d.Pairs))}
	for i, p := range d.Pairs {
		req.Pairs[i] = authserve.PairWire{Alpha: p.Alpha, Beta: p.Beta}
	}
	return authserve.AppendEnrollBinary(nil, &req)
}

// session is one planned authentication.
type session struct {
	device   int // claimed identity
	silicon  int // device whose silicon answers (≠ device for impostors)
	impostor bool
}

// planSessions draws n sessions: device uniform per session, in seeded
// permutation rounds over the fleet, and one in impostorEvery an impostor.
func planSessions(seed uint64, devices, n int) []session {
	rng := rngx.New(seed ^ 0x5e55)
	out := make([]session, n)
	perm := make([]int, devices)
	for i := range out {
		if i%devices == 0 {
			for j := range perm {
				perm[j] = j
			}
			rng.Shuffle(devices, func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		}
		s := session{device: perm[i%devices]}
		s.silicon = s.device
		if rng.Intn(impostorEvery) == 0 {
			s.impostor = true
			s.silicon = (s.device + 1 + rng.Intn(devices-1)) % devices
		}
		out[i] = s
	}
	return out
}

// authVerdicts tallies session outcomes.
type authVerdicts struct {
	honestAccepted, honestRejected     atomic.Int64
	impostorAccepted, impostorRejected atomic.Int64
	failures                           atomic.Int64
	mu                                 sync.Mutex
	firstErr                           error
}

func (v *authVerdicts) failed(err error) error {
	v.failures.Add(1)
	v.mu.Lock()
	if v.firstErr == nil {
		v.firstErr = err
	}
	v.mu.Unlock()
	return err
}

// authRunner executes sessions against one server.
type authRunner struct {
	seed     uint64
	fleet    *authFleet
	sessions []session
	next     atomic.Int64 // next unused session
	ran      atomic.Int64 // sessions attempted
	c        *client
	v        *authVerdicts
}

// take reserves n sessions for a phase and returns the index of the first.
func (a *authRunner) take(n int) (int, error) {
	first := int(a.next.Add(int64(n))) - n
	if first+n > len(a.sessions) {
		return 0, fmt.Errorf("session plan exhausted (%d planned)", len(a.sessions))
	}
	return first, nil
}

// run executes session s: challenge, respond from a fresh measurement,
// verify, and check the verdict against the client's own recomputation.
func (a *authRunner) run(ctx context.Context, s int) error {
	a.ran.Add(1)
	ss := a.sessions[s]
	id := a.fleet.ids[ss.device]
	var ch authserve.ChallengeResponse
	code, err := a.c.postJSON(ctx, "challenge", "/v1/challenge", authserve.ChallengeRequest{ID: id, K: authK}, &ch)
	if err != nil {
		return a.v.failed(fmt.Errorf("challenge %s: %w", id, err))
	}
	if code != http.StatusOK {
		return a.v.failed(fmt.Errorf("challenge %s: status %d", id, code))
	}
	if len(ch.Pairs) != authK || ch.ID != id {
		return a.v.failed(fmt.Errorf("challenge %s: got %d pairs for %q", id, len(ch.Pairs), ch.ID))
	}
	fresh := fleet.Remeasure(a.fleet.devices[ss.silicon], authNoisePS, a.seed*0x9e3779b97f4a7c15+uint64(s))
	resp, err := a.fleet.provers[ss.silicon].Respond(&auth.Challenge{DeviceID: id, Pairs: ch.Pairs}, fresh)
	if err != nil {
		return a.v.failed(fmt.Errorf("respond %s: %w", id, err))
	}
	var vr authserve.VerifyResponse
	code, err = a.c.postJSON(ctx, "verify", "/v1/verify",
		authserve.VerifyRequest{ID: id, ChallengeID: ch.ChallengeID, Response: resp.String()}, &vr)
	if err != nil {
		return a.v.failed(fmt.Errorf("verify %s: %w", id, err))
	}
	if code != http.StatusOK {
		return a.v.failed(fmt.Errorf("verify %s: status %d", id, code))
	}
	// The server's reference bits are the claimed device's enrolled bits
	// at the challenged pairs; recompute distance and verdict locally.
	ref := bits.New(authK)
	for _, p := range ch.Pairs {
		ref.Append(a.fleet.provers[ss.device].Enrollment.Selections[p].Bit)
	}
	dist, err := bits.HammingDistance(ref, resp)
	if err != nil {
		return a.v.failed(err)
	}
	limit := authLimitBits()
	if vr.Distance != dist || vr.Limit != limit || vr.Bits != authK || vr.OK != (dist <= limit) {
		return a.v.failed(fmt.Errorf("verify %s: server says ok=%v distance=%d limit=%d bits=%d, client computes distance %d limit %d",
			id, vr.OK, vr.Distance, vr.Limit, vr.Bits, dist, limit))
	}
	switch {
	case !ss.impostor && vr.OK:
		a.v.honestAccepted.Add(1)
	case !ss.impostor:
		a.v.honestRejected.Add(1)
	case vr.OK:
		a.v.impostorAccepted.Add(1)
	default:
		a.v.impostorRejected.Add(1)
	}
	return nil
}

// phase runs one open-loop phase of sessions.
func (a *authRunner) phase(ctx context.Context, name string, rate float64, d time.Duration) (*phaseResult, error) {
	n := int(math.Round(rate * d.Seconds()))
	first, err := a.take(n)
	if err != nil {
		return nil, err
	}
	return runPhase(ctx, phase{name: name, rate: rate, duration: d, workers: runtime.NumCPU()},
		func(ctx context.Context, i int) error { return a.run(ctx, first+i) }), nil
}

// enrollFleet enrolls every device over HTTP, closed-loop on one
// connection per CPU.
func enrollFleet(ctx context.Context, c *client, f *authFleet) error {
	return parallel(len(f.ids), func(i int) error {
		body, err := enrollBody(f.ids[i], f.devices[i])
		if err != nil {
			return err
		}
		var er authserve.EnrollResponse
		code, err := c.post(ctx, "enroll", "/v1/enroll", authserve.EnrollContentTypeBinary, body, &er)
		if err != nil {
			return fmt.Errorf("enroll %s: %w", f.ids[i], err)
		}
		if code != http.StatusOK || er.Bits != f.provers[i].Enrollment.NumBits() {
			return fmt.Errorf("enroll %s: status %d, %d bits (want %d)", f.ids[i], code, er.Bits, f.provers[i].Enrollment.NumBits())
		}
		return nil
	})
}

func runAuth(cfg *config, rep *report) error {
	ctx := context.Background()
	R := time.Duration(cfg.seconds) * time.Second
	warm := time.Second
	// Plan every session the run can use: warm-up, the reference and
	// saturation phases (or, traced, two reference legs).
	planned := authRefRate*(warm.Seconds()+authRefDuration(R).Seconds()) + authSaturationCap*authSatDuration(R).Seconds() + 16
	if cfg.trace {
		planned = authRefRate*(2*warm.Seconds()+R.Seconds()) + 16
	}
	nDev := max(authMinDevices, int(math.Ceil(planned/authSessionsPerDevice)))
	f, err := fabricateAuthFleet(cfg.seed, nDev)
	if err != nil {
		return err
	}
	sessions := planSessions(cfg.seed, nDev, int(planned))

	// Set-up: enroll the fleet into a fresh durable store, drain it so the
	// fleet sits in shard snapshots, then time restart-to-ready.
	dataDir := filepath.Join(cfg.work, "data")
	srv, _, err := startServe(cfg.ropuf, dataDir, authServeArgs(cfg.seed)...)
	if err != nil {
		return err
	}
	c := newClient(srv.base, runtime.NumCPU(), nil)
	err = enrollFleet(ctx, c, f)
	c.close()
	if err != nil {
		srv.kill()
		return err
	}
	if err := srv.interrupt(); err != nil {
		return err
	}
	openCopy := filepath.Join(cfg.work, "open-copy")
	if cfg.trace {
		if err := copyDir(dataDir, openCopy); err != nil {
			return err
		}
	}
	var readies []float64
	for i := 0; i < setupRepeats; i++ {
		s, ready, err := startServe(cfg.ropuf, dataDir, authServeArgs(cfg.seed+uint64(i))...)
		if err != nil {
			return err
		}
		readies = append(readies, ready.Seconds())
		if i < setupRepeats-1 {
			s.kill() // no mutation since the drain: nothing to lose
		} else {
			srv = s
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: auth fleet %d devices, %d sessions planned, restart-to-ready %v s\n", nDev, len(sessions), readies)
	defer func() {
		select {
		case <-srv.done:
		default:
			srv.kill()
		}
	}()

	// Flush set-up's dirty pages now, so their writeback does not land on
	// the measured fsyncs.
	syscall.Sync()
	v := &authVerdicts{}
	a := &authRunner{seed: cfg.seed, fleet: f, sessions: sessions, v: v}
	a.c = newClient(srv.base, runtime.NumCPU(), nil)
	if _, err := a.phase(ctx, "warmup", authRefRate, warm); err != nil {
		return err
	}

	var st *servingTrace
	if cfg.trace {
		st, err = authTraced(ctx, cfg, a, &srv, dataDir, R/2, nDev)
		if err == nil {
			st.storeOpen, _, err = timeStoreOpen(openCopy)
			st.storeOpenNote = fmt.Sprintf("authserve.Open on a copy of the prepared %d-device store", nDev)
		}
	} else {
		err = authMeasured(ctx, rep, a, srv, R, readies, nDev, dataDir)
	}
	a.c.close()
	if err != nil {
		return err
	}

	// Correctness gates.
	used := a.ran.Load()
	rep.ops(used, v.failures.Load())
	if n := v.failures.Load(); n > 0 {
		rep.fail("%d of %d sessions failed; first: %v", n, used, v.firstErr)
	}
	if n := v.honestRejected.Load(); n > 0 {
		rep.fail("%d honest sessions rejected", n)
	}
	fmt.Printf("auth     sessions: honest %d accepted / %d rejected; impostor %d rejected / %d accepted within tolerance (k=%d, limit %d)\n",
		v.honestAccepted.Load(), v.honestRejected.Load(), v.impostorRejected.Load(), v.impostorAccepted.Load(),
		authK, authLimitBits())
	checkFlagged(ctx, rep, srv)
	if err := srv.interrupt(); err != nil {
		rep.fail("final drain: %v", err)
	}
	if cfg.trace {
		if err := st.report(rep, filepath.Join(cfg.traceDir, fmt.Sprintf("auth-%d-client.jsonl", cfg.seed))); err != nil {
			return err
		}
		if err := probeLayers(cfg.seed, cfg.work, rep); err != nil {
			return err
		}
	}
	finishMetrics(rep, cfg.trace)
	return nil
}

// checkFlagged gates on the abuse scorer: honest load must flag no device.
func checkFlagged(ctx context.Context, rep *report, srv *serveProc) {
	var fr authserve.FlaggedResponse
	c := newClient(srv.base, 1, nil)
	defer c.close()
	code, err := c.getJSON(ctx, "flagged", "/v1/audit/flagged", &fr)
	switch {
	case err != nil || code != http.StatusOK:
		rep.fail("GET /v1/audit/flagged: status %d, %v", code, err)
	case len(fr.Devices) > 0:
		rep.fail("%d devices flagged by the abuse scorer, first %s %v", len(fr.Devices), fr.Devices[0].ID, fr.Devices[0].Reasons)
	}
}

// authTraced runs the per-layer legs: an untraced leg on the restored
// server, then a traced leg on a server restarted with -trace-out and a
// client that records spans and httptrace phases.
func authTraced(ctx context.Context, cfg *config, a *authRunner, srvp **serveProc, dataDir string,
	leg time.Duration, nDev int) (*servingTrace, error) {
	st := &servingTrace{devices: nDev}
	var err error
	srv := *srvp
	st.untraced, st.cpuU, st.u0, st.u1, err = measuredLeg(ctx, srv, func() (*phaseResult, error) {
		return a.phase(ctx, "untraced", authRefRate, leg)
	})
	if err != nil {
		return nil, err
	}
	printPhase("auth", st.untraced)
	if _, st.heapObjects, err = srv.heap(ctx); err != nil {
		return nil, err
	}
	if err := srv.interrupt(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return nil, err
	}
	st.serverFile = filepath.Join(cfg.traceDir, fmt.Sprintf("auth-%d-server.jsonl", cfg.seed))
	srv, _, err = startServe(cfg.ropuf, dataDir, append(authServeArgs(cfg.seed^0x7ace), "-trace-out", st.serverFile)...)
	if err != nil {
		return nil, err
	}
	*srvp = srv
	sink := &memSink{}
	a.c.close()
	a.c = newClient(srv.base, runtime.NumCPU(), obs.NewTracer(sink, obs.WithService("perfbench")))
	st.c = a.c
	if _, err := a.phase(ctx, "warmup", authRefRate, time.Second); err != nil {
		return nil, err
	}
	sink.take()
	a.c.resetTrace()
	st.traced, st.cpuT, st.t0, st.t1, err = measuredLeg(ctx, srv, func() (*phaseResult, error) {
		return a.phase(ctx, "traced", authRefRate, leg)
	})
	if err != nil {
		return nil, err
	}
	printPhase("auth", st.traced)
	st.clientSpans = sink.take()
	return st, nil
}

// measuredLeg runs one leg between two fresh /metrics scrapes and
// returns it with the server CPU it used.
func measuredLeg(ctx context.Context, srv *serveProc, leg func() (*phaseResult, error)) (
	res *phaseResult, cpu time.Duration, m0, m1 map[string]float64, err error) {
	settle()
	if m0, err = srv.metrics(ctx); err != nil {
		return
	}
	cpu0, err := srv.cpu()
	if err != nil {
		return
	}
	if res, err = leg(); err != nil {
		return
	}
	cpu1, err := srv.cpu()
	if err != nil {
		return
	}
	cpu = cpu1 - cpu0
	settle()
	m1, err = srv.metrics(ctx)
	return
}

// refDuration is the enroll workload's reference phase length; its
// saturation phase takes the remaining quarter of the run.
func refDuration(R time.Duration) time.Duration { return 3 * R / 4 }

// authRefDuration and authSatDuration are the auth workload's reference
// and saturation phase lengths. The saturation phase is shorter because
// each of its sessions uses fleet pairs, so its length sets the fleet size
// and with it the set-up time.
func authRefDuration(R time.Duration) time.Duration { return R / 2 }
func authSatDuration(R time.Duration) time.Duration { return R / 4 }

// authMeasured is the untraced run: the reference phase, then the
// saturation phase.
func authMeasured(ctx context.Context, rep *report, a *authRunner, srv *serveProc,
	R time.Duration, readies []float64, nDev int, dataDir string) error {
	ref, refs, sats, cpus, err := interleave(srv, authRefDuration(R), authSatDuration(R),
		func(d time.Duration) (*phaseResult, error) { return a.phase(ctx, "reference", authRefRate, d) },
		func(d time.Duration) (*phaseResult, error) {
			limit := int(authSaturationCap * d.Seconds())
			first, err := a.take(limit)
			if err != nil {
				return nil, err
			}
			return saturate(ctx, "saturation", d, runtime.NumCPU(), limit,
				func(ctx context.Context, i int) error { return a.run(ctx, first+i) }), nil
		})
	if err != nil {
		return err
	}
	sat := mergePhases(sats)
	printPhase("auth", ref)
	printPhase("auth", sat)
	goodputs := make([]float64, len(sats))
	for i, sp := range sats {
		goodputs[i] = sp.goodput()
	}
	cpuPerOp := make([]float64, len(refs))
	for i, rp := range refs {
		cpuPerOp[i] = msPerOp(cpus[i], rp.ok)
	}
	fmt.Printf("auth     saturation chunk goodputs %.1f\n", goodputs)
	fmt.Printf("auth     reference chunk server CPU ms/op %.4f\n", cpuPerOp)
	heapBytes, err := restingHeap(ctx, srv)
	if err != nil {
		return err
	}
	disk, err := dirBytes(dataDir)
	if err != nil {
		return err
	}
	rep.set("setup_s", median(readies), "s", fmt.Sprintf("median of %d restarts on %d devices", len(readies), nDev))
	latencies(rep, ref, fmt.Sprintf("%d sessions/s", authRefRate))
	rep.set("goodput_ops_s", quantile(goodputs, 0.75), "1/s", fmt.Sprintf("sessions completed per second, %d connections back to back, upper quartile of %d chunks", runtime.NumCPU(), len(goodputs)))
	rep.set("cpu_ms_per_op", quantile(cpuPerOp, 0.25), "ms", fmt.Sprintf("server CPU over %d sessions, lower quartile of %d chunks", ref.ok, len(cpuPerOp)))
	rep.set("heap_bytes_per_device", heapBytes/float64(nDev), "bytes", fmt.Sprintf("%.0f bytes live after GC / %d devices", heapBytes, nDev))
	rep.set("disk_bytes_per_device", float64(disk)/float64(nDev), "bytes", fmt.Sprintf("%d bytes / %d devices", disk, nDev))
	return nil
}

// interleaveChunks is how many pieces the reference and saturation
// phases are cut into; the pieces alternate, so the capacity estimate
// spans the run rather than one moment of a host whose speed drifts. It
// is the upper quartile of the saturation chunks' rates: noise from other
// tenants only ever slows a chunk, so the faster chunks say more about the
// program than the slower ones, and slowed chunks below the quartile do
// not move it. For the same reason the server CPU per session is the lower
// quartile of the reference chunks' figures.
const interleaveChunks = 8

// interleave runs the reference phase (refDur in all) and the saturation
// phase (satDur in all) in alternating chunks. It returns the merged
// reference phase, the reference and saturation chunks one by one, and
// the server CPU each reference chunk used.
func interleave(srv *serveProc, refDur, satDur time.Duration,
	ref, sat func(d time.Duration) (*phaseResult, error)) (
	r *phaseResult, refs, sats []*phaseResult, cpus []time.Duration, err error) {
	for k := 0; k < interleaveChunks; k++ {
		c0, err := srv.cpu()
		if err != nil {
			return nil, nil, nil, nil, err
		}
		rp, err := ref(refDur / interleaveChunks)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		c1, err := srv.cpu()
		if err != nil {
			return nil, nil, nil, nil, err
		}
		sp, err := sat(satDur / interleaveChunks)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		refs, sats, cpus = append(refs, rp), append(sats, sp), append(cpus, c1-c0)
	}
	return mergePhases(refs), refs, sats, cpus, nil
}

// latencies reports the reference phase's median (the lower quartile of
// its windows' medians) and its p99 over the whole phase.
func latencies(rep *report, ref *phaseResult, at string) {
	n := len(ref.latency)
	rep.set("latency_p50_ms", ref.windowedMS(0.50), "ms", fmt.Sprintf("n=%d at %s, lower quartile of %d window medians", n, at, ref.windows()))
	rep.set("latency_p99_ms", ref.latencyMS(0.99), "ms", fmt.Sprintf("n=%d, %d beyond", n, beyond(n, 0.99)))
}

// restingHeap forces three GCs in the server 300 ms apart and returns the
// smallest live heap, so a compaction in flight does not count.
func restingHeap(ctx context.Context, srv *serveProc) (float64, error) {
	best := math.Inf(1)
	for i := 0; i < 3; i++ {
		if i > 0 {
			time.Sleep(300 * time.Millisecond)
		}
		b, _, err := srv.heap(ctx)
		if err != nil {
			return 0, err
		}
		best = min(best, b)
	}
	return best, nil
}
