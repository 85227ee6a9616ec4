// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload against the real system — `ropuf serve` as a child process for
// the serving workloads, the dataset pipeline in-process for the corpus
// workload — checks every output for correctness, and prints each metric
// by name and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics, measured with
// tracing off; with -trace 1 they are the per-layer metrics of a separate
// traced run. README.md lists the workloads, the metrics, and the layer
// each per-layer metric belongs to.
//
// Usage (from the repository root; run.sh builds both binaries first):
//
//	perfbench -ropuf <ropuf binary> -workload auth|enroll|corpus -seed N -seconds S -trace 0|1
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// config is one run's command line.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	ropuf    string // path to the ropuf binary under test
	work     string // per-run scratch directory, removed at exit
	traceDir string // where a traced run leaves its span files
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one run's metrics and correctness verdict.
type report struct {
	order     []string
	info      []string // measured and printed, but not in the JSON result
	metrics   map[string]metric
	notes     map[string]string // printed beside the value, e.g. sample counts
	attempted int64
	failed    int64
	failures  []string // correctness gate violations
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, notes: map[string]string{}}
}

// set records a metric; note (optional) is printed beside it.
func (r *report) set(name string, value float64, unit, note string) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	r.metrics[name] = metric{Value: value, Unit: unit}
	if note != "" {
		r.notes[name] = note
	}
}

// fail records a correctness gate violation.
func (r *report) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.failures = append(r.failures, msg)
	fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", msg)
}

// ops adds attempted and failed operations.
func (r *report) ops(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

// print writes the human-readable lines and the final JSON line.
func (r *report) print(workload string) {
	for _, name := range append(r.order, r.info...) {
		m := r.metrics[name]
		line := fmt.Sprintf("%-8s %-40s %14.6g %s", workload, name, m.Value, m.Unit)
		if n := r.notes[name]; n != "" {
			line += "  (" + n + ")"
		}
		fmt.Println(line)
	}
	declared := make(map[string]metric, len(r.order))
	for _, name := range r.order {
		declared[name] = r.metrics[name]
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("%-8s %-40s %14.6g %s  (%d of %d)\n", workload, "failed_frac", frac, "frac", r.failed, r.attempted)
	for _, f := range r.failures {
		fmt.Printf("%-8s CHECK FAILED: %s\n", workload, f)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.failures) == 0, max(r.attempted, 1), r.failed, declared}
	line, _ := json.Marshal(out) // plain structs and maps always encode
	fmt.Println(string(line))
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: auth, enroll or corpus")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.IntVar(&cfg.seconds, "seconds", 30, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.StringVar(&cfg.ropuf, "ropuf", ".bench_build/ropuf", "ropuf binary under test")
	flag.StringVar(&cfg.work, "work", ".bench_build/work", "scratch root for data directories (inside the checkout)")
	flag.StringVar(&cfg.traceDir, "trace-dir", ".bench_build/trace", "where -trace 1 writes the client and server span files")
	flag.Parse()
	cfg.trace = trace == 1
	if err := run(&cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// errIncorrect marks a run whose result was printed but failed a gate.
var errIncorrect = errors.New("correctness gate failed")

func run(cfg *config) error {
	if cfg.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", cfg.seconds)
	}
	if cfg.seed == 0 {
		return errors.New("-seed must be non-zero")
	}
	var fn func(*config, *report) error
	switch cfg.workload {
	case "auth":
		fn = runAuth
	case "enroll":
		fn = runEnroll
	case "corpus":
		fn = runCorpus
	default:
		return fmt.Errorf("unknown -workload %q (want auth, enroll or corpus)", cfg.workload)
	}
	if cfg.workload != "corpus" {
		if _, err := os.Stat(cfg.ropuf); err != nil {
			return fmt.Errorf("ropuf binary: %w", err)
		}
		// The load generator holds the whole fleet; collecting at 3× the
		// live heap keeps its GC out of a phase that starts collected
		// (runPhase, saturate). The corpus workload runs the system under
		// test in this process, so it keeps the default.
		debug.SetGCPercent(200)
	}
	// A fresh scratch directory per run: a store reused across seeds would
	// answer 409 to every enroll and reject every verify.
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(cfg.work, fmt.Sprintf("%s-%d-", cfg.workload, cfg.seed))
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg.work = dir

	// Start from a clean page cache state: flush what earlier runs left
	// dirty, so its writeback does not stall this run's fsyncs.
	syscall.Sync()
	printHost(cfg)
	rep := newReport()
	if err := fn(cfg, rep); err != nil {
		return err
	}
	rep.print(cfg.workload)
	if len(rep.failures) > 0 {
		return errIncorrect
	}
	return nil
}

// Deployment settings of the serving workloads, stamped into every record.
const (
	fsyncPolicy = "always"
	// enrollCompactBytes is the -wal-compact-bytes of the enroll workload:
	// small enough that background compaction folds every shard's log
	// several times per run.
	enrollCompactBytes = 64 << 10
	// authCompactBytes is the auth workload's -wal-compact-bytes (the serve
	// default): no compaction runs during an auth run.
	authCompactBytes = 4 << 20
)

// printHost stamps the record with the host and deployment metadata.
func printHost(cfg *config) {
	compact := int64(0)
	switch cfg.workload {
	case "auth":
		compact = authCompactBytes
	case "enroll":
		compact = enrollCompactBytes
	}
	host := map[string]any{
		"workload":          cfg.workload,
		"seed":              cfg.seed,
		"seconds":           cfg.seconds,
		"trace":             cfg.trace,
		"nproc":             runtime.NumCPU(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"go":                runtime.Version(),
		"commit":            gitCommit(),
		"fsync":             fsyncPolicy,
		"wal_compact_bytes": compact,
	}
	line, _ := json.Marshal(host) // plain map always encodes
	fmt.Printf("host %s\n", line)
}

// gitCommit names the checkout's commit, or "unknown" outside a git tree.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median returns the middle value of xs (not modified).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantile returns the p-quantile (0 <= p <= 1) of xs, interpolated
// linearly between the two nearest ranks; xs is not modified.
func quantile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	pos := p * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// beyond reports how many of n samples lie above the p-quantile, the
// count printed beside every percentile.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

// msPerOp is d in milliseconds per op.
func msPerOp(d time.Duration, ops int64) float64 {
	if ops == 0 {
		return 0
	}
	return float64(d) / float64(time.Millisecond) / float64(ops)
}

// copyDir copies the regular files of src (one level deep) into dst.
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
