package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ropuf/internal/obs"
)

// client is the load generator's HTTP side: one keep-alive transport
// capped at conns connections. With a tracer it wraps every request in a
// client.<route> span whose identity travels in the traceparent header,
// so the server's authserve.<route> span becomes its child, and records
// the httptrace phases of each request.
type client struct {
	base   string
	hc     *http.Client
	tracer *obs.Tracer // nil: tracing off

	mu     sync.Mutex
	ttfb   []time.Duration // request written → first response byte
	conns  atomic.Int64    // connections obtained
	reused atomic.Int64    // of which reused from the idle pool
}

func newClient(base string, conns int, tracer *obs.Tracer) *client {
	return &client{
		base: base,
		hc: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        conns,
				MaxIdleConnsPerHost: conns,
				MaxConnsPerHost:     conns,
			},
		},
		tracer: tracer,
	}
}

// close releases the idle connections.
func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends body to path and decodes a 200 answer into out.
func (c *client) post(ctx context.Context, route, path, contentType string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", contentType)
	return c.do(ctx, route, req, out)
}

// postJSON is post with a JSON-encoded body.
func (c *client) postJSON(ctx context.Context, route, path string, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	return c.post(ctx, route, path, "application/json", body, out)
}

// getJSON fetches path and decodes a 200 answer into out.
func (c *client) getJSON(ctx context.Context, route, path string, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return 0, err
	}
	return c.do(ctx, route, req, out)
}

func (c *client) do(ctx context.Context, route string, req *http.Request, out any) (int, error) {
	if c.tracer != nil {
		var span *obs.Span
		ctx, span = c.tracer.Start(ctx, "client."+route)
		defer span.End()
		obs.Inject(ctx, req.Header)
		var wrote time.Time
		req = req.WithContext(httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GotConn: func(info httptrace.GotConnInfo) {
				c.conns.Add(1)
				if info.Reused {
					c.reused.Add(1)
				}
			},
			WroteRequest: func(httptrace.WroteRequestInfo) { wrote = time.Now() },
			GotFirstResponseByte: func() {
				if !wrote.IsZero() {
					d := time.Since(wrote)
					c.mu.Lock()
					c.ttfb = append(c.ttfb, d)
					c.mu.Unlock()
				}
			},
		}))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("decode %s answer: %w", req.URL.Path, err)
		}
	}
	return resp.StatusCode, nil
}

// memSink keeps the benchmark's own spans in memory until the run ends.
type memSink struct {
	mu     sync.Mutex
	events []obs.SpanEvent
}

func (s *memSink) Emit(ev obs.SpanEvent) {
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

// take returns the recorded spans and empties the sink.
func (s *memSink) take() []obs.SpanEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	ev := s.events
	s.events = nil
	return ev
}

// writeSpans writes spans as JSON lines (the -trace-out format, readable
// by `ropuf tracestat`).
func writeSpans(path string, events []obs.SpanEvent) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sink := obs.NewJSONLSink(f)
	for _, ev := range events {
		sink.Emit(ev)
	}
	return f.Close()
}

// resetTrace clears the httptrace counters, e.g. after a warm-up.
func (c *client) resetTrace() {
	c.mu.Lock()
	c.ttfb = nil
	c.mu.Unlock()
	c.conns.Store(0)
	c.reused.Store(0)
}
