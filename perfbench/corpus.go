package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"ropuf/internal/dataset"
	"ropuf/internal/obs"
)

// The corpus workload: paper-shaped VT corpora (512 ROs per board, the
// default env-swept boards) streamed into bin shards and read back.
const (
	corpusBoards  = 199 // boards per corpus job: the paper-scale default corpus
	corpusWorkers = 2
	corpusShards  = 4
)

// corpusConfig is the default VT configuration at a given size and seed.
func corpusConfig(seed uint64, boards int) dataset.VTConfig {
	cfg := dataset.DefaultVTConfig()
	cfg.NumBoards = boards
	cfg.Seed = seed
	return cfg
}

// corpusJob is one job's measurements.
type corpusJob struct {
	total      time.Duration // stream start → read-back verified
	firstBoard time.Duration // stream start → first board at the sink
	bytes      int64         // shard bytes on disk
	boards     int
	cpu        time.Duration // process CPU over the job
}

// boardDigest hashes what a board carries, so the read-back can be
// compared with what was written.
func boardDigest(b *dataset.Board) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(b.ID))
	for _, c := range b.Conditions() {
		put(uint64(c.MilliVolts)<<32 | uint64(c.DeciCelsius))
		for _, f := range b.Freq[c] {
			put(math.Float64bits(f))
		}
	}
	for i := range b.X {
		put(uint64(b.X[i])<<32 | uint64(b.Y[i]))
	}
	return h.Sum64()
}

// runCorpusJob streams one corpus into bin shards under dir, reads it back
// (manifest, CRCs and counts checked by the reader) and compares every
// board with what was written. tracer, when set, records the job's spans.
func runCorpusJob(ctx context.Context, seed uint64, dir string, tracer *obs.Tracer) (job corpusJob, err error) {
	defer os.RemoveAll(dir)
	ctx, span := tracer.Start(ctx, "corpus.job")
	defer span.End()
	cfg := corpusConfig(seed, corpusBoards)
	start := time.Now()
	w, err := dataset.NewShardWriter(dir, corpusShards, dataset.FormatBin)
	if err != nil {
		return job, err
	}
	digests := make([]uint64, 0, corpusBoards)
	sctx, stream := tracer.Start(ctx, "dataset.stream")
	err = dataset.StreamVTParallel(sctx, cfg, corpusWorkers, func(b *dataset.Board) error {
		if len(digests) == 0 {
			job.firstBoard = time.Since(start)
		}
		_, ws := tracer.Start(sctx, "dataset.shard_write")
		err := w.WriteBoard(b)
		ws.End()
		digests = append(digests, boardDigest(b))
		return err
	})
	stream.End()
	if err != nil {
		return job, err
	}
	_, cs := tracer.Start(ctx, "dataset.close")
	man, err := w.Close()
	cs.End()
	if err != nil {
		return job, err
	}
	_, rs := tracer.Start(ctx, "dataset.readback")
	defer rs.End()
	r, err := dataset.OpenShards(dir)
	if err != nil {
		return job, err
	}
	n := 0
	err = r.Boards(func(b *dataset.Board) error {
		if n >= len(digests) || boardDigest(b) != digests[n] {
			return fmt.Errorf("read-back board %d differs from the board written", n)
		}
		n++
		return nil
	})
	if err != nil {
		return job, err
	}
	if n != corpusBoards || man.Boards != corpusBoards || len(digests) != corpusBoards {
		return job, fmt.Errorf("corpus of %d boards: wrote %d, manifest %d, read back %d", corpusBoards, len(digests), man.Boards, n)
	}
	job.total = time.Since(start)
	job.boards = n
	for _, fi := range man.Files {
		job.bytes += fi.Bytes
	}
	return job, nil
}

// processCPU is this process's user + system time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// corpusLeg runs jobs back to back for d and collects them with the
// process CPU and allocation they cost.
type corpusLeg struct {
	jobs   []corpusJob
	failed int
	first  error
	cpu    time.Duration
	mem0   runtime.MemStats
	mem1   runtime.MemStats
}

func runCorpusLeg(ctx context.Context, seed uint64, work string, d time.Duration, next *int, tracer *obs.Tracer) *corpusLeg {
	leg := &corpusLeg{}
	runtime.ReadMemStats(&leg.mem0)
	cpu0 := processCPU()
	start := time.Now()
	for time.Since(start) < d {
		j := *next
		*next++
		c0 := processCPU()
		job, err := runCorpusJob(ctx, seed*0x9e3779b97f4a7c15+uint64(j), filepath.Join(work, fmt.Sprintf("corpus-%d", j)), tracer)
		job.cpu = processCPU() - c0
		if err != nil {
			leg.failed++
			if leg.first == nil {
				leg.first = err
			}
			continue
		}
		leg.jobs = append(leg.jobs, job)
	}
	leg.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&leg.mem1)
	return leg
}

func (l *corpusLeg) boards() int {
	n := 0
	for _, j := range l.jobs {
		n += j.boards
	}
	return n
}

// latencies returns the sorted job times in ms.
func (l *corpusLeg) latencies() []float64 {
	out := make([]float64, len(l.jobs))
	for i, j := range l.jobs {
		out[i] = ms(int64(j.total))
	}
	sort.Float64s(out)
	return out
}

func (l *corpusLeg) cpuPerBoard() float64 { return msPerOp(l.cpu, int64(l.boards())) }

// corpusWindows is how many windows of consecutive jobs the end-to-end
// timings are taken over.
const corpusWindows = 8

// windows splits the leg's jobs, in run order, into corpusWindows windows
// and returns each window's median job time in ms, boards per second of
// job time, and process CPU per board in ms. The metrics take the fast
// quartile over the windows: other tenants of a shared host only ever
// slow a window, so it follows the program, not the host, as long as a
// quarter of the windows ran undisturbed.
func (l *corpusLeg) windows() (lat, rate, cpu []float64) {
	k := min(corpusWindows, len(l.jobs))
	for w := 0; w < k; w++ {
		jobs := l.jobs[w*len(l.jobs)/k : (w+1)*len(l.jobs)/k]
		times := make([]float64, len(jobs))
		var busy, used time.Duration
		boards := 0
		for i, j := range jobs {
			times[i] = ms(int64(j.total))
			busy += j.total
			used += j.cpu
			boards += j.boards
		}
		lat = append(lat, median(times))
		rate = append(rate, float64(boards)/busy.Seconds())
		cpu = append(cpu, msPerOp(used, int64(boards)))
	}
	return lat, rate, cpu
}

func runCorpus(cfg *config, rep *report) error {
	ctx := context.Background()
	R := time.Duration(cfg.seconds) * time.Second
	next := 0
	// One job warms the page cache and the allocator before timing.
	if _, err := runCorpusJob(ctx, cfg.seed, filepath.Join(cfg.work, "warmup"), nil); err != nil {
		rep.fail("warm-up corpus: %v", err)
	}
	var legs []*corpusLeg
	if cfg.trace {
		untraced := runCorpusLeg(ctx, cfg.seed, cfg.work, R/2, &next, nil)
		sink := &memSink{}
		traced := runCorpusLeg(ctx, cfg.seed, cfg.work, R/2, &next, obs.NewTracer(sink, obs.WithService("perfbench")))
		legs = append(legs, untraced, traced)
		if err := corpusLayers(cfg, rep, untraced, traced, sink.take()); err != nil {
			return err
		}
		if err := probeLayers(cfg.seed, cfg.work, rep); err != nil {
			return err
		}
	} else {
		leg := runCorpusLeg(ctx, cfg.seed, cfg.work, R, &next, nil)
		legs = append(legs, leg)
		lat := leg.latencies()
		first := make([]float64, len(leg.jobs))
		var bytes int64
		for i, j := range leg.jobs {
			first[i] = j.firstBoard.Seconds()
			bytes += j.bytes
		}
		boards := float64(leg.boards())
		wLat, wRate, wCPU := leg.windows()
		fmt.Printf("corpus   window job p50s ms %.2f\ncorpus   window boards/s %.0f\ncorpus   window CPU ms/board %.4f\n", wLat, wRate, wCPU)
		n := len(lat)
		rep.set("setup_s", median(first), "s", fmt.Sprintf("median time to first board over %d jobs", n))
		rep.set("latency_p50_ms", quantile(wLat, 0.25), "ms", fmt.Sprintf("n=%d jobs of %d boards, lower quartile of %d window medians", n, corpusBoards, len(wLat)))
		rep.set("latency_p99_ms", percentile(lat, 0.99), "ms", fmt.Sprintf("n=%d, %d beyond", n, beyond(n, 0.99)))
		rep.set("goodput_ops_s", quantile(wRate, 0.75), "1/s", fmt.Sprintf("boards streamed, written and verified per second, upper quartile of %d windows", len(wRate)))
		rep.set("cpu_ms_per_op", quantile(wCPU, 0.25), "ms", fmt.Sprintf("process CPU per board, %d workers, lower quartile of %d windows", corpusWorkers, len(wCPU)))
		rep.set("heap_bytes_per_device", float64(leg.mem1.TotalAlloc-leg.mem0.TotalAlloc)/boards, "bytes", "heap bytes allocated per board")
		rep.set("disk_bytes_per_device", float64(bytes)/boards, "bytes", "shard bytes per board")
	}
	for _, l := range legs {
		rep.ops(int64(l.boards()+l.failed*corpusBoards), int64(l.failed*corpusBoards))
		if l.failed > 0 {
			rep.fail("%d corpus jobs failed; first: %v", l.failed, l.first)
		}
	}
	finishMetrics(rep, cfg.trace)
	return nil
}

// corpusLayers reports the corpus run's own-process runtime metrics, the
// sink's wait on fabrication from the traced leg's spans, and the tracing
// overhead.
func corpusLayers(cfg *config, rep *report, untraced, traced *corpusLeg, spans []obs.SpanEvent) error {
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return err
	}
	file := filepath.Join(cfg.traceDir, fmt.Sprintf("corpus-%d-spans.jsonl", cfg.seed))
	if err := writeSpans(file, spans); err != nil {
		return err
	}
	fmt.Printf("spans: %s (%d); `ropuf tracestat %s` renders the waterfall\n", file, len(spans), file)
	byParent := map[string][]obs.SpanEvent{}
	for _, ev := range spans {
		byParent[ev.ParentID] = append(byParent[ev.ParentID], ev)
	}
	var wait int64
	for _, ev := range spans {
		if ev.Name == "dataset.stream" {
			wait += ev.DurationNS - covered(ev, byParent[ev.ID])
		}
	}
	tb := traced.boards()
	if tb == 0 {
		return fmt.Errorf("traced corpus leg completed no boards")
	}
	rep.set("dataset.sink_wait_us_per_board", float64(wait)/1e3/float64(tb), "us", "stream span − shard writes: the sink waiting on fabrication")

	ub := float64(untraced.boards())
	m0, m1 := &untraced.mem0, &untraced.mem1
	rep.set("runtime.alloc_bytes_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/ub, "bytes", "benchmark process, per board")
	rep.set("runtime.gc_cycles_per_kop", 1e3*float64(m1.NumGC-m0.NumGC)/ub, "1/kop", "per 1000 boards")
	rep.set("runtime.gc_pause_ms_per_kop", 1e3*float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6/ub, "ms/kop", "per 1000 boards")
	runtime.GC()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	rep.set("runtime.heap_objects_per_device", float64(ms1.HeapObjects)/corpusBoards, "count", "live objects after GC per board of one corpus")
	ul, tl := untraced.latencies(), traced.latencies()
	overheads(rep, percentile(ul, 0.5), percentile(tl, 0.5), untraced.cpuPerBoard(), traced.cpuPerBoard())
	return nil
}
