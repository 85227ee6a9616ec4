package obs

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
)

// TraceparentHeader is the W3C Trace Context header both sides of a hop
// agree on: clients inject it, servers extract it.
const TraceparentHeader = "traceparent"

// traceparentKey is TraceparentHeader in http.Header's canonical form.
// Indexing the map with it directly skips the per-call canonicalisation
// (and its allocation) of h.Get and h.Set on the lower-case name.
var traceparentKey = http.CanonicalHeaderKey(TraceparentHeader)

// FormatTraceparent renders sc as a version-00 W3C traceparent value with
// the sampled flag set: `00-<trace-id>-<span-id>-01`.
func FormatTraceparent(sc SpanContext) string {
	return "00-" + sc.TraceID + "-" + sc.SpanID + "-01"
}

// ErrTraceparent reports a malformed traceparent header value. Callers that
// extract incoming context treat it as "no parent" and root a fresh trace —
// a bad peer must never break request handling.
var ErrTraceparent = errors.New("obs: malformed traceparent")

// ParseTraceparent parses a W3C traceparent header value
// (`version-traceid-parentid-flags`). Per the spec: the version must be two
// lowercase hex digits other than "ff"; the trace ID is 32 lowercase hex
// digits, the parent span ID 16, neither all zeros; the flags field is two
// lowercase hex digits. Headers from future versions (> 00) are accepted as
// long as their first four fields parse, ignoring any trailing fields.
func ParseTraceparent(value string) (SpanContext, error) {
	fields := strings.Split(value, "-")
	if len(fields) < 4 {
		return SpanContext{}, fmt.Errorf("%w: %d fields, want at least 4", ErrTraceparent, len(fields))
	}
	version := fields[0]
	if len(version) != 2 || !isLowerHex(version) || version == "ff" {
		return SpanContext{}, fmt.Errorf("%w: bad version %q", ErrTraceparent, version)
	}
	if version == "00" && len(fields) != 4 {
		return SpanContext{}, fmt.Errorf("%w: version 00 with %d fields, want 4", ErrTraceparent, len(fields))
	}
	sc := SpanContext{TraceID: fields[1], SpanID: fields[2]}
	if !isHexID(sc.TraceID, 32) {
		return SpanContext{}, fmt.Errorf("%w: bad trace-id %q", ErrTraceparent, sc.TraceID)
	}
	if !isHexID(sc.SpanID, 16) {
		return SpanContext{}, fmt.Errorf("%w: bad parent-id %q", ErrTraceparent, sc.SpanID)
	}
	if flags := fields[3]; len(flags) != 2 || !isLowerHex(flags) {
		return SpanContext{}, fmt.Errorf("%w: bad flags %q", ErrTraceparent, flags)
	}
	return sc, nil
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

// Inject writes the trace identity carried by ctx (live span or remote
// context) into h as a traceparent header. With no identity in ctx the
// header is left untouched, so uninstrumented calls stay header-free.
func Inject(ctx context.Context, h http.Header) {
	sc, ok := SpanContextOf(ctx)
	if !ok {
		return
	}
	h[traceparentKey] = []string{FormatTraceparent(sc)}
}

// Extract reads and validates the traceparent header from h. ok is false
// when the header is absent or malformed; the caller then roots a fresh
// trace instead of joining one.
func Extract(h http.Header) (SpanContext, bool) {
	values := h[traceparentKey]
	if len(values) == 0 {
		return SpanContext{}, false
	}
	sc, err := ParseTraceparent(values[0])
	if err != nil {
		return SpanContext{}, false
	}
	return sc, true
}
