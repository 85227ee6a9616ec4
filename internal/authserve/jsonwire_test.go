package authserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ropuf/internal/bits"
)

// encodeIndented is the generic path the fast-path encoder must match
// byte for byte: json.Encoder with two-space indent (HTML escaping on,
// trailing newline included).
func encodeIndented(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatalf("reference encode: %v", err)
	}
	return buf.Bytes()
}

// nastyStrings exercises every escaping rule: the HTML trio, the
// two-character escapes, other control bytes, U+2028/U+2029, multibyte
// runes, and invalid UTF-8.
var nastyStrings = []string{
	"",
	"plain",
	`quote " backslash \ slash /`,
	"tabs\tand\nnewlines\rand\x00nulls\x1f",
	"<script>alert('x')&amp;</script>",
	"line\u2028and\u2029separators",
	"unicode: héllo 世界 🎉",
	"invalid utf8: \xff\xfe mid\xc3string",
	"\u007f del is not escaped",
	strings.Repeat("long-", 100) + "<end>",
}

// serverBody runs one response writer the way handlers do, both through
// a pooled reqScratch and on a plain writer, and returns the body after
// checking the two agree.
func serverBody(t *testing.T, write func(http.ResponseWriter)) []byte {
	t.Helper()
	plain := httptest.NewRecorder()
	write(plain)
	pooled := httptest.NewRecorder()
	sc := getScratch(pooled)
	write(sc)
	putScratch(sc)
	if !bytes.Equal(plain.Body.Bytes(), pooled.Body.Bytes()) {
		t.Fatalf("pooled body %q differs from plain body %q", pooled.Body.Bytes(), plain.Body.Bytes())
	}
	return plain.Body.Bytes()
}

// checkEncoders holds the encoders to encoding/json for one string: an ok
// from an append function must mean the reference bytes, and the server's
// writers (fast path or fallback) must produce them always.
func checkEncoders(t *testing.T, s string) {
	t.Helper()
	wantErr := encodeIndented(t, ErrorResponse{Error: s})
	if got, ok := appendErrorResponse(nil, s); ok && !bytes.Equal(got, wantErr) {
		t.Errorf("appendErrorResponse(%q):\n got %q\nwant %q", s, got, wantErr)
	}
	if got := serverBody(t, func(w http.ResponseWriter) { writeError(w, http.StatusBadRequest, s) }); !bytes.Equal(got, wantErr) {
		t.Errorf("error body for %q:\n got %q\nwant %q", s, got, wantErr)
	}
	for _, v := range []ChallengeResponse{
		{ChallengeID: s, ID: "dev-0001", Pairs: []int{3, 1}, Fresh: 2},
		{ChallengeID: "c0ffee", ID: s, Pairs: []int{}, Fresh: 0},
	} {
		want := encodeIndented(t, v)
		if got, ok := appendChallengeResponse(nil, v); ok && !bytes.Equal(got, want) {
			t.Errorf("appendChallengeResponse(%+v):\n got %q\nwant %q", v, got, want)
		}
		if got := serverBody(t, func(w http.ResponseWriter) { writeChallenge(w, v) }); !bytes.Equal(got, want) {
			t.Errorf("challenge body for %+v:\n got %q\nwant %q", v, got, want)
		}
	}
}

func TestAppendErrorResponseMatchesEncodingJSON(t *testing.T) {
	for _, s := range nastyStrings {
		checkEncoders(t, s)
	}
}

func TestAppendVerifyResponseMatchesEncodingJSON(t *testing.T) {
	cases := []VerifyResponse{
		{},
		{OK: true, Distance: 0, Limit: 12, Bits: 128},
		{OK: false, Distance: 64, Limit: 12, Bits: 128},
		{OK: true, Distance: -3, Limit: -1, Bits: 0},
		{Distance: 1 << 40, Limit: 1 << 50, Bits: 1<<31 - 1},
	}
	for _, v := range cases {
		got := appendVerifyResponse(nil, v)
		want := encodeIndented(t, v)
		if !bytes.Equal(got, want) {
			t.Errorf("verify body for %+v:\n got %q\nwant %q", v, got, want)
		}
	}
}

func TestAppendChallengeResponseMatchesEncodingJSON(t *testing.T) {
	cases := []ChallengeResponse{
		{},
		{ChallengeID: "abc123", ID: "dev-0001", Pairs: []int{5}, Fresh: 1},
		{ChallengeID: "n<>&\u2028", ID: "tabs\there", Pairs: []int{0, 1, 2, 99, -4}, Fresh: 12},
		{ChallengeID: "empty-but-not-nil", ID: "x", Pairs: []int{}, Fresh: 0},
		{ChallengeID: "nil-pairs", ID: "y", Pairs: nil, Fresh: 3},
	}
	for _, v := range cases {
		got := serverBody(t, func(w http.ResponseWriter) { writeChallenge(w, v) })
		want := encodeIndented(t, v)
		if !bytes.Equal(got, want) {
			t.Errorf("challenge body for %+v:\n got %q\nwant %q", v, got, want)
		}
	}
}

// decodeRef mirrors the server's old generic decode: json.Decoder.Decode
// of one value (trailing data ignored).
func decodeRef(body string, v any) error {
	return json.NewDecoder(strings.NewReader(body)).Decode(v)
}

// verifyDecodeCases covers accept/reject parity for the verify request
// parser: escapes, duplicates, unknown fields, nulls, syntax errors, and
// the bodies a general hand parser once decoded differently.
var verifyDecodeCases = []string{
	`{"id":"dev-1","challenge_id":"c1","response":"0110"}`,
	"\r\n\t {\"id\" : \"dev-1\" , \"challenge_id\" : \"c1\" , \"response\" : \"01\" } \n trailing garbage ignored",
	`{}`,
	`null`,
	`{"id":null,"challenge_id":null,"response":null}`,
	`{"response":"01","response":null}`,              // null is a no-op, keeps "01"
	`{"response":"01","response":"10"}`,              // duplicate: last wins
	`{"id":"a","id":"b"}`,                            // duplicate string
	`{"unknown":123,"id":"x"}`,                       // unknown number
	`{"unknown":{"nested":[1,"two",null]},"id":"x"}`, // unknown composite
	`{"unknown":[[],{},[{"a":[false]}]]}`,
	`{"id":"esc\u0041\n\t\"\\\/"}`,
	`{"id":"\ud83c\udf89"}`,     // surrogate pair
	`{"id":"\ud800"}`,           // lone high surrogate -> U+FFFD
	`{"id":"\udc00 low alone"}`, // lone low surrogate
	`{"id":"\ud800\ud800"}`,     // high followed by high
	`{"id":"\ud800x"}`,          // high followed by normal char
	`{"id":"héllo 世界"}`,         // raw multibyte passthrough
	`{"response":"01x"}`,        // bits error, JSON fine
	`{"response":""}`,
	``,                               // empty body: EOF both ways
	`   `,                            // whitespace only
	`[1,2]`,                          // wrong top-level type
	`"str"`,                          // wrong top-level type
	`true`,                           // wrong top-level type
	`{`,                              // truncated
	`{"id"`,                          // truncated at colon
	`{"id":}`,                        // missing value
	`{"id":"a"`,                      // truncated before close
	`{"id":"a",}`,                    // trailing comma
	`{"id":"a" "challenge_id":"b"}`,  // missing comma
	`{"id":'a'}`,                     // single quotes
	`{"id":"raw` + "\x01" + `ctrl"}`, // raw control byte in string
	`{"id":"bad\escape"}`,            // invalid escape
	`{"id":"\u12"}`,                  // truncated hex escape
	`{"id":"\uZZZZ"}`,                // invalid hex digits
	`{"id":"unterminated`,
	`{"id":123}`,   // number into string field
	`{"id":true}`,  // bool into string field
	`{"id":["a"]}`, // array into string field
	`{nonsense}`,
	`{"k":02}`, // leading zero in a skipped number is still a syntax error
	`{"ID":"dev-1","Challenge_ID":"c1","RESPONSE":"01"}`, // keys fold case
	`{"id":"bad utf8 ` + "\xff\xc3" + `"}`,               // invalid UTF-8 becomes U+FFFD
}

func TestParseVerifyRequestMatchesEncodingJSON(t *testing.T) {
	for _, body := range verifyDecodeCases {
		t.Run(fmt.Sprintf("%.40q", body), func(t *testing.T) { checkVerifyParity(t, []byte(body)) })
	}
}

// checkVerifyParity holds parseVerifyRequest to json.Decoder.Decode on
// one body: the same error-or-not, the same fields, and the same bits.
func checkVerifyParity(t *testing.T, body []byte) {
	t.Helper()
	var want VerifyRequest
	wantErr := decodeRef(string(body), &want)

	var stream bits.Stream
	id, challengeID, bitsErr, gotErr := parseVerifyRequest(body, &stream)

	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("body %q: error parity: parser err=%v, encoding/json err=%v", body, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if id != want.ID || challengeID != want.ChallengeID {
		t.Fatalf("body %q: got id=%q challenge_id=%q, want id=%q challenge_id=%q",
			body, id, challengeID, want.ID, want.ChallengeID)
	}
	// The reference path parses bits from the decoded string.
	wantStream, wantBitsErr := bits.FromString(want.Response)
	if (bitsErr != nil) != (wantBitsErr != nil) {
		t.Fatalf("body %q: bits error parity: parser=%v reference=%v", body, bitsErr, wantBitsErr)
	}
	if bitsErr == nil && !stream.Equal(wantStream) {
		t.Fatalf("body %q: bits: got %q want %q", body, stream.String(), wantStream.String())
	}
}

var challengeDecodeCases = []string{
	`{"id":"dev-1","k":2}`,
	`{"id":"dev-1","k":0}`,
	`{"id":"dev-1","k":-7}`,
	`{"k":2,"id":"dev-1","k":5}`, // duplicate int: last wins
	`{"k":null}`,
	`{"k":9223372036854775807}`,
	`{"k":9223372036854775808}`,  // overflows int64
	`{"k":-9223372036854775809}`, // underflows int64
	`{"k":2.5}`,                  // fraction into int field
	`{"k":2.0}`,                  // still rejected: ParseInt sees "2.0"
	`{"k":2e3}`,                  // exponent into int field
	`{"k":02}`,                   // leading zero is a syntax error
	`{"k":-}`,                    // bare minus
	`{"k":"2"}`,                  // string into int field
	`{"k":+2}`,                   // leading plus is invalid JSON
	`{"unknown":-1.5e-7,"k":3}`,  // unknown float skipped
	`{"unknown":1.}`,             // bare decimal point in skipped number
	`{"unknown":1e}`,             // empty exponent in skipped number
	`{"id":"x"}`,
	`null`,
	`{"ID":"dev-1","k":2}`, // keys fold case
	`{"id":"dev-1","K":2}`,
	`{"id":"dev-1","k":123456789}`,  // longest fast-path integer
	`{"id":"dev-1","k":1234567890}`, // one digit past it
}

func TestParseChallengeRequestMatchesEncodingJSON(t *testing.T) {
	for _, body := range challengeDecodeCases {
		t.Run(fmt.Sprintf("%.40q", body), func(t *testing.T) { checkChallengeParity(t, []byte(body)) })
	}
}

// checkChallengeParity holds parseChallengeRequest to json.Decoder.Decode
// on one body.
func checkChallengeParity(t *testing.T, body []byte) {
	t.Helper()
	var want ChallengeRequest
	wantErr := decodeRef(string(body), &want)

	id, k, gotErr := parseChallengeRequest(body)

	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("body %q: error parity: parser err=%v, encoding/json err=%v", body, gotErr, wantErr)
	}
	if gotErr == nil && (id != want.ID || k != want.K) {
		t.Fatalf("body %q: got id=%q k=%d, want id=%q k=%d", body, id, k, want.ID, want.K)
	}
}

// FuzzJSONWire is the differential fuzzer for the JSON fast path: for any
// body both request parsers must agree with json.Decoder.Decode, and for
// any string the response writers must match json.Encoder byte for byte.
// Its seeds are every table case above, also committed as its corpus.
func FuzzJSONWire(f *testing.F) {
	for i, body := range append(verifyDecodeCases, challengeDecodeCases...) {
		f.Add([]byte(body), nastyStrings[i%len(nastyStrings)])
	}
	f.Fuzz(func(t *testing.T, body []byte, s string) {
		checkVerifyParity(t, body)
		checkChallengeParity(t, body)
		checkEncoders(t, s)
	})
}

// TestParsedStringsDoNotAliasInput pins the correctness property the
// pooled buffers depend on: identity strings returned by the parsers must
// be copies, because the store retains them (map keys) long after the
// request buffer is reused.
func TestParsedStringsDoNotAliasInput(t *testing.T) {
	body := []byte(`{"id":"device-alias-check","challenge_id":"nonce-alias-check","response":"01"}`)
	var stream bits.Stream
	id, challengeID, bitsErr, err := parseVerifyRequest(body, &stream)
	if err != nil || bitsErr != nil {
		t.Fatalf("parse: %v / %v", err, bitsErr)
	}
	for i := range body {
		body[i] = 'X'
	}
	if id != "device-alias-check" {
		t.Fatalf("id aliases the request buffer: %q", id)
	}
	if challengeID != "nonce-alias-check" {
		t.Fatalf("challenge_id aliases the request buffer: %q", challengeID)
	}
}

// TestClientBodiesTakeFastPath pins that the bodies clients send
// (json.Marshal of the request structs) stay on the fast path: the only
// allocations are the identity strings the parsers copy out.
func TestClientBodiesTakeFastPath(t *testing.T) {
	verify, _ := json.Marshal(VerifyRequest{ID: "dev-0042", ChallengeID: "9f86d081884c7d65", Response: "0110100111"})
	var stream bits.Stream
	if n := testing.AllocsPerRun(50, func() { parseVerifyRequest(verify, &stream) }); n > 2 {
		t.Errorf("verify body %s: %.1f allocs, want the 2 identity strings", verify, n)
	}
	challenge, _ := json.Marshal(ChallengeRequest{ID: "dev-0042", K: 128})
	if n := testing.AllocsPerRun(50, func() { parseChallengeRequest(challenge) }); n > 1 {
		t.Errorf("challenge body %s: %.1f allocs, want the 1 identity string", challenge, n)
	}
}
