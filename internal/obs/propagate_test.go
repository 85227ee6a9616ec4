package obs

import (
	"bufio"
	"context"
	"errors"
	"net/http"
	"strings"
	"testing"
)

const (
	testTraceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	testSpanID  = "00f067aa0ba902b7"
)

func TestParseTraceparentValid(t *testing.T) {
	cases := []struct {
		name, value string
	}{
		{"spec example", "00-" + testTraceID + "-" + testSpanID + "-01"},
		{"unsampled flags", "00-" + testTraceID + "-" + testSpanID + "-00"},
		{"unknown flag bits", "00-" + testTraceID + "-" + testSpanID + "-ef"},
		{"future version", "cc-" + testTraceID + "-" + testSpanID + "-01"},
		{"future version extra fields", "cc-" + testTraceID + "-" + testSpanID + "-01-what-future"},
	}
	for _, tc := range cases {
		sc, err := ParseTraceparent(tc.value)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if sc.TraceID != testTraceID || sc.SpanID != testSpanID {
			t.Errorf("%s: parsed %+v", tc.name, sc)
		}
	}
}

func TestParseTraceparentInvalid(t *testing.T) {
	cases := []struct {
		name, value string
	}{
		{"empty", ""},
		{"not a header", "hello"},
		{"three fields", "00-" + testTraceID + "-" + testSpanID},
		{"version ff", "ff-" + testTraceID + "-" + testSpanID + "-01"},
		{"uppercase version", "0A-" + testTraceID + "-" + testSpanID + "-01"},
		{"one-digit version", "0-" + testTraceID + "-" + testSpanID + "-01"},
		{"version 00 extra fields", "00-" + testTraceID + "-" + testSpanID + "-01-extra"},
		{"short trace id", "00-abc123-" + testSpanID + "-01"},
		{"uppercase trace id", "00-4BF92F3577B34DA6A3CE929D0E0E4736-" + testSpanID + "-01"},
		{"all-zero trace id", "00-00000000000000000000000000000000-" + testSpanID + "-01"},
		{"all-zero span id", "00-" + testTraceID + "-0000000000000000-01"},
		{"short span id", "00-" + testTraceID + "-abc-01"},
		{"non-hex flags", "00-" + testTraceID + "-" + testSpanID + "-zz"},
		{"long flags", "00-" + testTraceID + "-" + testSpanID + "-011"},
	}
	for _, tc := range cases {
		if sc, err := ParseTraceparent(tc.value); err == nil {
			t.Errorf("%s: accepted %q as %+v", tc.name, tc.value, sc)
		} else if !errors.Is(err, ErrTraceparent) {
			t.Errorf("%s: error %v is not ErrTraceparent", tc.name, err)
		}
	}
}

func TestInjectExtractRoundTrip(t *testing.T) {
	tr := NewTracer(&collectSink{})
	ctx, span := tr.Start(context.Background(), "client")
	defer span.End()

	h := http.Header{}
	Inject(ctx, h)
	if got := h.Get(TraceparentHeader); got != FormatTraceparent(span.Context()) {
		t.Fatalf("injected %q, want %q", got, FormatTraceparent(span.Context()))
	}
	sc, ok := Extract(h)
	if !ok || sc != span.Context() {
		t.Fatalf("extracted %+v/%v, want %+v", sc, ok, span.Context())
	}

	// The extracted identity parents the server-side span onto the client's.
	srv := NewTracer(&collectSink{}, WithService("server"))
	_, serverSpan := srv.Start(ContextWithRemote(context.Background(), sc), "server")
	sctx := serverSpan.Context()
	serverSpan.End()
	if sctx.TraceID != span.Context().TraceID {
		t.Fatalf("server trace = %q, want client trace %q", sctx.TraceID, span.Context().TraceID)
	}
}

func TestInjectWithoutIdentity(t *testing.T) {
	h := http.Header{}
	Inject(context.Background(), h)
	if v := h.Get(TraceparentHeader); v != "" {
		t.Fatalf("injected %q from an identity-free context", v)
	}
}

// TestExtractMalformedFallsBack pins the resilience contract: a missing or
// malformed header means "no parent", never an error for the handler.
func TestExtractMalformedFallsBack(t *testing.T) {
	for _, value := range []string{"", "garbage", "00-xyz-abc-01"} {
		h := http.Header{}
		if value != "" {
			h.Set(TraceparentHeader, value)
		}
		if sc, ok := Extract(h); ok {
			t.Fatalf("Extract(%q) claimed a valid context %+v", value, sc)
		}
		// A span started afterwards roots a fresh, valid trace.
		tr := NewTracer(&collectSink{})
		_, span := tr.Start(context.Background(), "fresh")
		if !span.Context().Valid() {
			t.Fatalf("fresh root has invalid context %+v", span.Context())
		}
		span.End()
	}
}

// TestExtractWithoutHeaderAllocatesNothing pins the untraced request path:
// looking for an absent traceparent costs no allocation.
func TestExtractWithoutHeaderAllocatesNothing(t *testing.T) {
	h := http.Header{"Content-Type": {"application/json"}, "Content-Length": {"52"}}
	if n := testing.AllocsPerRun(100, func() { Extract(h) }); n != 0 {
		t.Fatalf("Extract without traceparent: %.1f allocs, want 0", n)
	}
}

// TestExtractReadsSetAndWireHeaders checks Extract finds the header
// whether it was Set by a caller or parsed off the wire.
func TestExtractReadsSetAndWireHeaders(t *testing.T) {
	value := "00-" + testTraceID + "-" + testSpanID + "-01"
	set := http.Header{}
	set.Set(TraceparentHeader, value)
	req, err := http.ReadRequest(bufio.NewReader(strings.NewReader(
		"GET / HTTP/1.1\r\nHost: x\r\ntraceparent: " + value + "\r\n\r\n")))
	if err != nil {
		t.Fatal(err)
	}
	for name, h := range map[string]http.Header{"Set": set, "wire": req.Header} {
		sc, ok := Extract(h)
		if !ok || sc.TraceID != testTraceID || sc.SpanID != testSpanID {
			t.Errorf("%s header: extracted %+v/%v", name, sc, ok)
		}
	}
}
