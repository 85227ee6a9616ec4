package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serveProc is one `ropuf serve` child process.
type serveProc struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	client  *http.Client
	done    chan struct{} // closed when the process has exited
	errMu   sync.Mutex
	stderr  bytes.Buffer // the process's stderr, for diagnostics
	waitErr error
}

var listenRE = regexp.MustCompile(`authserve listening on (http://[^ ]+)`)

// startServe launches `ropuf serve` on a loopback port the kernel picks,
// with dataDir as its store, and returns once /healthz answers 200. ready
// is the time from launch to that first 200: the restart-to-ready cost a
// deployment pays.
func startServe(bin, dataDir string, extra ...string) (p *serveProc, ready time.Duration, err error) {
	args := append([]string{"serve", "-addr", "127.0.0.1:0", "-data", dataDir, "-fsync", fsyncPolicy}, extra...)
	cmd := exec.Command(bin, args...)
	// The server dies with the benchmark, even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	p = &serveProc{
		cmd:    cmd,
		done:   make(chan struct{}),
		client: &http.Client{Timeout: 30 * time.Second},
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start ropuf serve: %w", err)
	}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			p.errMu.Lock()
			p.stderr.WriteString(line + "\n")
			p.errMu.Unlock()
			if m := listenRE.FindStringSubmatch(line); m != nil {
				select {
				case addrc <- m[1]:
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, pipe)
		p.waitErr = cmd.Wait()
		close(p.done)
	}()
	defer func() {
		if err != nil {
			p.kill()
		}
	}()
	select {
	case p.base = <-addrc:
	case <-p.done:
		return nil, 0, fmt.Errorf("ropuf serve exited before listening: %v\n%s", p.waitErr, p.stderrText())
	case <-time.After(120 * time.Second):
		return nil, 0, errors.New("ropuf serve did not start listening within 120 s")
	}
	for {
		resp, err := p.client.Get(p.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, time.Since(start), nil
			}
		}
		if time.Since(start) > 120*time.Second {
			return nil, 0, errors.New("ropuf serve /healthz not 200 within 120 s")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func (p *serveProc) stderrText() string {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.stderr.String()
}

// interrupt asks for a graceful drain (SIGINT) and waits for the exit; a
// drain that fails or overruns is an error.
func (p *serveProc) interrupt() error {
	if err := p.cmd.Process.Signal(os.Interrupt); err != nil {
		return err
	}
	select {
	case <-p.done:
	case <-time.After(60 * time.Second):
		p.kill()
		return errors.New("ropuf serve did not drain within 60 s")
	}
	if p.waitErr != nil || !strings.Contains(p.stderrText(), "authserve drained cleanly") {
		return fmt.Errorf("ropuf serve drain failed (%v):\n%s", p.waitErr, p.stderrText())
	}
	return nil
}

// kill stops the process with SIGKILL — a crash — and waits for it.
func (p *serveProc) kill() {
	_ = p.cmd.Process.Kill()
	<-p.done
}

// cpu returns the process's on-CPU time (user + system, all threads) so
// far. It sums the per-thread schedstat run times, which count in
// nanoseconds; /proc/<pid>/stat counts the same time in 10 ms ticks, too
// coarse for a few seconds of a mostly idle server.
func (p *serveProc) cpu() (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", p.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		data, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // thread exited between ReadDir and ReadFile
		}
		f := strings.Fields(string(data))
		if len(f) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parse %s schedstat: %w", t.Name(), err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// get fetches a path and returns the body of a 200 answer.
func (p *serveProc) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

// metrics scrapes /metrics into series name (labels included) → value.
func (p *serveProc) metrics(ctx context.Context) (map[string]float64, error) {
	body, err := p.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}

var heapRE = regexp.MustCompile(`(?m)^# (HeapAlloc|HeapObjects) = (\d+)$`)

// heap forces a GC in the server (the pprof heap endpoint's gc=1) and
// returns the live heap bytes and objects that remain.
func (p *serveProc) heap(ctx context.Context) (heapBytes, objects float64, err error) {
	body, err := p.get(ctx, "/debug/pprof/heap?gc=1&debug=1")
	if err != nil {
		return 0, 0, err
	}
	found := 0
	for _, m := range heapRE.FindAllStringSubmatch(string(body), -1) {
		v, _ := strconv.ParseFloat(m[2], 64) // \d+ always parses
		if m[1] == "HeapAlloc" {
			heapBytes = v
		} else {
			objects = v
		}
		found++
	}
	if found < 2 {
		return 0, 0, errors.New("heap profile has no HeapAlloc/HeapObjects lines")
	}
	return heapBytes, objects, nil
}
