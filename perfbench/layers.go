package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ropuf/internal/auth"
	"ropuf/internal/authserve"
	"ropuf/internal/bits"
	"ropuf/internal/core"
	"ropuf/internal/dataset"
	"ropuf/internal/fleet"
	"ropuf/internal/measure"
	"ropuf/internal/obs"
	"ropuf/internal/rngx"
	"ropuf/internal/silicon"
	"ropuf/internal/tracestat"
)

// endToEnd lists the -trace 0 metrics, in print order, with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"goodput_ops_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"heap_bytes_per_device", "bytes"},
	{"disk_bytes_per_device", "bytes"},
}

// perLayer lists the -trace 1 metrics with their units. A workload that
// does no work in a layer reports that layer's metrics as 0. The enroll
// route's span metrics and the compaction count are measured only by the
// enroll workload, which BENCHMARK.json does not declare, so they are
// printed but not listed here.
var perLayer = []struct{ name, unit string }{
	{"client.ttfb_ms_p50", "ms"},
	{"client.conn_reused_frac", "frac"},
	{"client.gen_lag_ms_p99", "ms"},
	{"client.residual_ms_p50.challenge", "ms"},
	{"client.residual_ms_p50.verify", "ms"},
	{"server.challenge.ms_p50", "ms"},
	{"server.challenge.ms_p99", "ms"},
	{"server.challenge.self_ms_p50", "ms"},
	{"server.verify.ms_p50", "ms"},
	{"server.verify.ms_p99", "ms"},
	{"server.verify.self_ms_p50", "ms"},
	{"server.queue.ms_p99", "ms"},
	{"store.challenge.ms_p50", "ms"},
	{"store.challenge.ms_p99", "ms"},
	{"store.verify.ms_p50", "ms"},
	{"store.verify.ms_p99", "ms"},
	{"store.wal_fsync_ms_mean", "ms"},
	{"store.wal_commit_ms_mean", "ms"},
	{"store.wal_records_per_commit", "count"},
	{"store.wal_bytes_per_op", "bytes"},
	{"store.open_s", "s"},
	{"auth.enroll_us", "us"},
	{"auth.challenge_us", "us"},
	{"auth.verify_us", "us"},
	{"core.enroll_us", "us"},
	{"core.binary_encode_us", "us"},
	{"core.binary_decode_us", "us"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"runtime.gc_cycles_per_kop", "1/kop"},
	{"runtime.gc_pause_ms_per_kop", "ms/kop"},
	{"runtime.heap_objects_per_device", "count"},
	{"measure.board_us", "us"},
	{"dataset.fabricate_us_per_board", "us"},
	{"dataset.shard_write_us_per_board", "us"},
	{"dataset.readback_us_per_board", "us"},
	{"dataset.bytes_per_board", "bytes"},
	{"dataset.sink_wait_us_per_board", "us"},
	{"trace.latency_overhead_frac", "frac"},
	{"trace.cpu_overhead_frac", "frac"},
}

// finishMetrics reports 0 for every metric of the run's set the workload
// did not exercise, and moves anything outside the set to the printed-only
// lines, so the JSON carries exactly the metrics BENCHMARK.json declares.
func finishMetrics(rep *report, trace bool) {
	set := endToEnd
	if trace {
		set = perLayer
	}
	keep := map[string]bool{}
	for _, m := range set {
		keep[m.name] = true
		if _, ok := rep.metrics[m.name]; !ok {
			rep.set(m.name, 0, m.unit, "not exercised by this workload")
		}
	}
	order := rep.order[:0]
	for _, name := range rep.order {
		if keep[name] {
			order = append(order, name)
		} else {
			rep.info = append(rep.info, name)
		}
	}
	rep.order = order
}

// servingTrace gathers what a traced serving run measured: an untraced
// leg and a traced leg at the same reference rate against the same
// prepared state, the benchmark's client spans and the server's span file.
type servingTrace struct {
	untraced, traced *phaseResult
	cpuU, cpuT       time.Duration
	u0, u1           map[string]float64 // /metrics around the untraced leg
	t0, t1           map[string]float64 // /metrics around the traced leg
	heapObjects      float64            // server heap objects after GC
	devices          int
	clientSpans      []obs.SpanEvent
	serverFile       string
	c                *client // the traced client, for httptrace counters
	storeOpen        time.Duration
	storeOpenNote    string
}

// settle waits out the server's 1 s memstats cache so the next /metrics
// scrape reads the runtime counters fresh.
func settle() { time.Sleep(1100 * time.Millisecond) }

// report derives the client, server, store, runtime and overhead metrics.
func (st *servingTrace) report(rep *report, clientFile string) error {
	server, err := tracestat.ReadFile(st.serverFile)
	if err != nil {
		return err
	}
	if err := writeSpans(clientFile, st.clientSpans); err != nil {
		return err
	}
	fmt.Printf("spans: client %s (%d), server %s (%d); `ropuf tracestat %s %s` renders the waterfall\n",
		clientFile, len(st.clientSpans), st.serverFile, len(server), clientFile, st.serverFile)
	byParent := map[string][]obs.SpanEvent{}
	for _, ev := range server {
		if ev.ParentID != "" {
			byParent[ev.ParentID] = append(byParent[ev.ParentID], ev)
		}
	}
	for _, route := range []string{"enroll", "challenge", "verify"} {
		var residual, total, self, store []float64
		for _, cs := range st.clientSpans {
			if cs.Name != "client."+route {
				continue
			}
			for _, ss := range byParent[cs.ID] {
				if ss.Name != "authserve."+route {
					continue
				}
				residual = append(residual, ms(cs.DurationNS-ss.DurationNS))
				total = append(total, ms(ss.DurationNS))
				children := byParent[ss.ID]
				self = append(self, ms(ss.DurationNS-covered(ss, children)))
				for _, ch := range children {
					if ch.Name == "store."+route {
						store = append(store, ms(ch.DurationNS))
					}
				}
			}
		}
		if len(total) == 0 {
			continue
		}
		sort.Float64s(residual)
		sort.Float64s(total)
		sort.Float64s(self)
		sort.Float64s(store)
		n := fmt.Sprintf("n=%d", len(total))
		rep.set("client.residual_ms_p50."+route, percentile(residual, 0.5), "ms", n+"; client span − server span")
		rep.set("server."+route+".ms_p50", percentile(total, 0.5), "ms", n)
		rep.set("server."+route+".ms_p99", percentile(total, 0.99), "ms", fmt.Sprintf("%s, %d beyond", n, beyond(len(total), 0.99)))
		rep.set("server."+route+".self_ms_p50", percentile(self, 0.5), "ms", n+"; route span − queue and store spans")
		rep.set("store."+route+".ms_p50", percentile(store, 0.5), "ms", fmt.Sprintf("n=%d", len(store)))
		rep.set("store."+route+".ms_p99", percentile(store, 0.99), "ms", fmt.Sprintf("n=%d, %d beyond", len(store), beyond(len(store), 0.99)))
	}
	var queue []float64
	for _, ev := range server {
		if ev.Name == "authserve.queue" {
			queue = append(queue, ms(ev.DurationNS))
		}
	}
	sort.Float64s(queue)
	rep.set("server.queue.ms_p99", percentile(queue, 0.99), "ms", fmt.Sprintf("n=%d, %d beyond", len(queue), beyond(len(queue), 0.99)))

	st.c.mu.Lock()
	ttfb := make([]float64, len(st.c.ttfb))
	for i, d := range st.c.ttfb {
		ttfb[i] = ms(int64(d))
	}
	st.c.mu.Unlock()
	sort.Float64s(ttfb)
	rep.set("client.ttfb_ms_p50", percentile(ttfb, 0.5), "ms", fmt.Sprintf("n=%d", len(ttfb)))
	if n := st.c.conns.Load(); n > 0 {
		rep.set("client.conn_reused_frac", float64(st.c.reused.Load())/float64(n), "frac", fmt.Sprintf("of %d requests", n))
	}
	rep.set("client.gen_lag_ms_p99", st.untraced.lagMS(0.99), "ms", fmt.Sprintf("n=%d, untraced leg", len(st.untraced.lag)))

	delta := func(m0, m1 map[string]float64, name string) float64 { return m1[name] - m0[name] }
	ratio := func(m0, m1 map[string]float64, h string) float64 {
		n := delta(m0, m1, h+"_count")
		if n == 0 {
			return 0
		}
		return delta(m0, m1, h+"_sum") / n
	}
	opsT := float64(st.traced.ok)
	rep.set("store.wal_fsync_ms_mean", 1e3*ratio(st.t0, st.t1, "ropuf_authserve_wal_fsync_duration_seconds"), "ms",
		fmt.Sprintf("%.0f fsyncs", delta(st.t0, st.t1, "ropuf_authserve_wal_fsync_duration_seconds_count")))
	rep.set("store.wal_commit_ms_mean", 1e3*ratio(st.t0, st.t1, "ropuf_authserve_wal_group_commit_duration_seconds"), "ms",
		fmt.Sprintf("%.0f group commits", delta(st.t0, st.t1, "ropuf_authserve_wal_group_commit_duration_seconds_count")))
	rep.set("store.wal_records_per_commit", ratio(st.t0, st.t1, "ropuf_authserve_wal_group_commit_records"), "count", "")
	rep.set("store.wal_bytes_per_op", delta(st.t0, st.t1, "ropuf_authserve_wal_appended_bytes_total")/opsT, "bytes",
		fmt.Sprintf("over %.0f ops", opsT))
	rep.set("store.compactions", delta(st.t0, st.t1, "ropuf_authserve_wal_compactions_total"), "count", "traced leg")

	rep.set("store.open_s", st.storeOpen.Seconds(), "s", st.storeOpenNote)

	opsU := float64(st.untraced.ok)
	rep.set("runtime.alloc_bytes_per_op", delta(st.u0, st.u1, "ropuf_runtime_alloc_bytes_total")/opsU, "bytes", fmt.Sprintf("server, untraced leg, %.0f ops", opsU))
	rep.set("runtime.gc_cycles_per_kop", 1e3*delta(st.u0, st.u1, "ropuf_runtime_gc_cycles_total")/opsU, "1/kop", "server, untraced leg")
	rep.set("runtime.gc_pause_ms_per_kop", 1e6*delta(st.u0, st.u1, "ropuf_runtime_gc_pause_seconds_total")/opsU, "ms/kop", "server, untraced leg")
	rep.set("runtime.heap_objects_per_device", st.heapObjects/float64(st.devices), "count", fmt.Sprintf("after GC, %d devices", st.devices))

	overheads(rep, st.untraced.latencyMS(0.5), st.traced.latencyMS(0.5),
		msPerOp(st.cpuU, st.untraced.ok), msPerOp(st.cpuT, st.traced.ok))
	return nil
}

// overheads reports what tracing costs: traced over untraced, minus one.
func overheads(rep *report, latU, latT, cpuU, cpuT float64) {
	rep.set("trace.latency_overhead_frac", latT/latU-1, "frac", fmt.Sprintf("latency_p50 %.4f ms traced vs %.4f ms untraced", latT, latU))
	rep.set("trace.cpu_overhead_frac", cpuT/cpuU-1, "frac", fmt.Sprintf("cpu_ms_per_op %.4f traced vs %.4f untraced", cpuT, cpuU))
}

// covered is how much of parent's interval its children cover.
func covered(parent obs.SpanEvent, children []obs.SpanEvent) int64 {
	type iv struct{ a, b int64 }
	lo, hi := parent.Start.UnixNano(), parent.Start.UnixNano()+parent.DurationNS
	var ivs []iv
	for _, c := range children {
		a := max(c.Start.UnixNano(), lo)
		b := min(c.Start.UnixNano()+c.DurationNS, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64 = 0, lo
	for _, v := range ivs {
		a := max(v.a, end)
		if v.b > a {
			total += v.b - a
			end = v.b
		}
	}
	return total
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// timeStoreOpen opens a durable store on dir in-process — snapshot load
// plus WAL replay — and returns how long authserve.Open took.
func timeStoreOpen(dir string) (time.Duration, int, error) {
	t0 := time.Now()
	s, err := authserve.Open(authserve.StoreOptions{Dir: dir, Fsync: authserve.FsyncAlways})
	d := time.Since(t0)
	if err != nil {
		return 0, 0, fmt.Errorf("authserve.Open: %w", err)
	}
	n := s.NumDevices()
	return d, n, s.Close()
}

// Probe sizes: the in-process layer probes run on the same seed-derived
// inputs in every traced run.
const (
	probeDevices = 256
	probeBoards  = 128
)

// probeLayers times the auth, core, measure and dataset layers by calling
// their public functions in-process, one layer at a time.
func probeLayers(seed uint64, work string, rep *report) error {
	devices, err := fleet.Synthetic(probeDevices, authPairs, authStages, seed^0x9b0b)
	if err != nil {
		return err
	}
	perCall := func(d time.Duration, n int) float64 { return float64(d) / float64(time.Microsecond) / float64(n) }

	// core: Case-2 selection over every pair, then the binary codec.
	enrs := make([]*core.Enrollment, len(devices))
	t0 := time.Now()
	for i, d := range devices {
		if enrs[i], err = core.Enroll(d.Pairs, core.Case2, 0, core.Options{}); err != nil {
			return err
		}
	}
	rep.set("core.enroll_us", perCall(time.Since(t0), len(devices)), "us", fmt.Sprintf("Case-2, %d pairs × %d stages, n=%d", authPairs, authStages, len(devices)))
	blobs := make([][]byte, len(enrs))
	t0 = time.Now()
	for i, e := range enrs {
		if blobs[i], err = e.AppendBinary(nil); err != nil {
			return err
		}
	}
	rep.set("core.binary_encode_us", perCall(time.Since(t0), len(enrs)), "us", fmt.Sprintf("%d bytes per enrollment", len(blobs[0])))
	t0 = time.Now()
	for _, b := range blobs {
		if _, err := core.LoadEnrollmentBinary(b); err != nil {
			return err
		}
	}
	rep.set("core.binary_decode_us", perCall(time.Since(t0), len(blobs)), "us", "")

	// auth: the verifier's enroll, challenge and verify.
	v, err := auth.NewVerifier(authTolerance, rngx.New(seed))
	if err != nil {
		return err
	}
	ids := make([]string, len(devices))
	t0 = time.Now()
	for i, d := range devices {
		ids[i] = fmt.Sprintf("p%05d", i)
		if _, err := v.Enroll(ids[i], d.Pairs, core.Case2); err != nil {
			return err
		}
	}
	rep.set("auth.enroll_us", perCall(time.Since(t0), len(devices)), "us", fmt.Sprintf("n=%d", len(devices)))
	rounds := authPairs / authK
	chs := make([]*auth.Challenge, 0, rounds*len(ids))
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		for _, id := range ids {
			ch, err := v.NewChallenge(id, authK)
			if err != nil {
				return err
			}
			chs = append(chs, ch)
		}
	}
	rep.set("auth.challenge_us", perCall(time.Since(t0), len(chs)), "us", fmt.Sprintf("k=%d, n=%d", authK, len(chs)))
	resps := make([]*bits.Stream, len(chs))
	for i, ch := range chs {
		p := &auth.Prover{Enrollment: enrs[i%len(devices)]}
		if resps[i], err = p.Respond(ch, devices[i%len(devices)].Pairs); err != nil {
			return err
		}
	}
	t0 = time.Now()
	for i, ch := range chs {
		ok, _, err := v.Verify(ch, resps[i])
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("probe: noiseless response of %s rejected", ch.DeviceID)
		}
	}
	rep.set("auth.verify_us", perCall(time.Since(t0), len(chs)), "us", fmt.Sprintf("n=%d", len(chs)))

	return probeCorpus(seed, work, rep)
}

// probeCorpus times the corpus layers one at a time: board measurement,
// fabrication into a discarding sink, shard writing and read-back.
func probeCorpus(seed uint64, work string, rep *report) error {
	cfg := corpusConfig(seed^0xc0, probeBoards)
	perBoard := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / probeBoards }

	// measure: one nominal-condition measurement of a fabricated die.
	rng := rngx.New(seed ^ 0x3ea5)
	die, err := silicon.NewDie(cfg.Process, cfg.GridW, cfg.GridH, rng)
	if err != nil {
		return err
	}
	bm := measure.NewBoardMeter(cfg.NoiseMHz)
	dst := make([]float64, die.NumDevices())
	env := dataset.NominalCondition.Env()
	t0 := time.Now()
	for i := 0; i < probeBoards; i++ {
		if _, err := bm.MeasureInto(dst, die, env, rng); err != nil {
			return err
		}
	}
	rep.set("measure.board_us", perBoard(time.Since(t0)), "us", fmt.Sprintf("%d ROs, n=%d", die.NumDevices(), probeBoards))

	// dataset + silicon: fabrication alone, then writing and reading
	// back boards already in memory.
	t0 = time.Now()
	if err := dataset.StreamVTParallel(context.Background(), cfg, corpusWorkers, func(*dataset.Board) error { return nil }); err != nil {
		return err
	}
	rep.set("dataset.fabricate_us_per_board", perBoard(time.Since(t0)), "us", fmt.Sprintf("%d workers, n=%d", corpusWorkers, probeBoards))
	ds, err := dataset.GenerateVT(cfg)
	if err != nil {
		return err
	}
	dir := filepath.Join(work, "probe-corpus")
	defer os.RemoveAll(dir)
	t0 = time.Now()
	w, err := dataset.NewShardWriter(dir, corpusShards, dataset.FormatBin)
	if err != nil {
		return err
	}
	for _, b := range ds.Boards {
		if err := w.WriteBoard(b); err != nil {
			return err
		}
	}
	man, err := w.Close()
	if err != nil {
		return err
	}
	rep.set("dataset.shard_write_us_per_board", perBoard(time.Since(t0)), "us", fmt.Sprintf("%d bin shards", corpusShards))
	var bytes int64
	for _, fi := range man.Files {
		bytes += fi.Bytes
	}
	rep.set("dataset.bytes_per_board", float64(bytes)/probeBoards, "bytes", "")
	t0 = time.Now()
	r, err := dataset.OpenShards(dir)
	if err != nil {
		return err
	}
	n := 0
	if err := r.Boards(func(*dataset.Board) error { n++; return nil }); err != nil {
		return err
	}
	rep.set("dataset.readback_us_per_board", perBoard(time.Since(t0)), "us", "manifest and CRC checks included")
	if n != probeBoards {
		return fmt.Errorf("probe corpus read back %d of %d boards", n, probeBoards)
	}
	return nil
}
