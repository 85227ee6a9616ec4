package authserve

// JSON fast path for the verify and challenge hot paths.
//
// Steady-state traffic is one canonical shape per route: a compact object
// with the exact lower-case keys, ASCII strings without escapes, and small
// unsigned integers. This file reads and writes only that shape by hand.
// Everything else goes through encoding/json — the same calls /v1/enroll
// and writeJSON make — so the wire behaviour is encoding/json's by
// construction:
//
//   - Decoding: the fast path accepts one object whose members are the
//     route's exact keys, with string values of printable ASCII and no
//     backslash, and integers with no sign, fraction, exponent or leading
//     zero, at most 9 digits. Whitespace between tokens is allowed and
//     trailing bytes after the closing brace are ignored, as
//     json.Decoder.Decode ignores them. Any other body (escapes,
//     non-ASCII, null, unknown or differently-cased keys, nested values,
//     syntax errors) is decoded by json.Decoder.Decode instead.
//
//   - Encoding: output is byte-identical to json.NewEncoder +
//     SetIndent("", "  ") + Encode of the wire structs. A string is
//     written verbatim only when encoding/json would write it unescaped
//     (printable ASCII other than " \ < > &); otherwise the append
//     functions report false and the caller uses writeJSON. wire_test.go's
//     golden file and jsonwire_test.go hold both directions to that.

import (
	"bytes"
	"encoding/json"
	"strconv"

	"ropuf/internal/bits"
)

// --- decoding ---------------------------------------------------------------

// canon scans the canonical request shape. Each method reports false as
// soon as the input leaves that shape.
type canon struct {
	data []byte
	pos  int
}

// ws skips JSON whitespace.
func (c *canon) ws() {
	for c.pos < len(c.data) {
		switch c.data[c.pos] {
		case ' ', '\t', '\n', '\r':
			c.pos++
		default:
			return
		}
	}
}

// eat consumes b after optional whitespace.
func (c *canon) eat(b byte) bool {
	c.ws()
	if c.pos < len(c.data) && c.data[c.pos] == b {
		c.pos++
		return true
	}
	return false
}

// str consumes a string of printable ASCII without escapes and returns a
// view of its contents; the caller copies what it keeps.
func (c *canon) str() ([]byte, bool) {
	if !c.eat('"') {
		return nil, false
	}
	for start := c.pos; c.pos < len(c.data); c.pos++ {
		switch b := c.data[c.pos]; {
		case b == '"':
			c.pos++
			return c.data[start : c.pos-1], true
		case b < 0x20 || b > 0x7e || b == '\\':
			return nil, false
		}
	}
	return nil, false
}

// uint consumes 1 to 9 digits without a leading zero. A fraction or an
// exponent leaves the shape at the object's next ',' or '}' check.
func (c *canon) uint() (int, bool) {
	c.ws()
	start, n := c.pos, 0
	for ; c.pos < len(c.data) && c.data[c.pos] >= '0' && c.data[c.pos] <= '9'; c.pos++ {
		n = n*10 + int(c.data[c.pos]-'0')
	}
	digits := c.pos - start
	return n, digits > 0 && digits <= 9 && (digits == 1 || c.data[start] != '0')
}

// object walks one object, calling member at each key with the scanner
// positioned at its value; member consumes the value and reports false
// for a key or value outside the shape.
func (c *canon) object(member func(key []byte) bool) bool {
	if !c.eat('{') {
		return false
	}
	if c.eat('}') {
		return true
	}
	for {
		key, ok := c.str()
		if !ok || !c.eat(':') || !member(key) {
			return false
		}
		if c.eat('}') {
			return true
		}
		if !c.eat(',') {
			return false
		}
	}
}

// parseVerifyRequest decodes a POST /v1/verify body. id and challengeID
// are copies (they may outlive the request in store maps); the response
// bits go straight into resp, which is reset first. A bits syntax error
// is returned as bitsErr: any JSON error wins, then the bits complaint.
func parseVerifyRequest(data []byte, resp *bits.Stream) (id, challengeID string, bitsErr, err error) {
	resp.Reset()
	c := canon{data: data}
	if c.object(func(key []byte) bool {
		v, ok := c.str()
		if !ok {
			return false
		}
		switch string(key) {
		case "id":
			id = string(v)
		case "challenge_id":
			challengeID = string(v)
		case "response":
			resp.Reset() // duplicate keys: last one wins
			bitsErr = resp.AppendChars(v)
		default:
			return false
		}
		return true
	}) {
		return id, challengeID, bitsErr, nil
	}
	var req VerifyRequest
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&req); err != nil {
		return "", "", nil, err
	}
	resp.Reset()
	return req.ID, req.ChallengeID, resp.AppendChars([]byte(req.Response)), nil
}

// parseChallengeRequest decodes a POST /v1/challenge body.
func parseChallengeRequest(data []byte) (id string, k int, err error) {
	c := canon{data: data}
	if c.object(func(key []byte) bool {
		switch string(key) {
		case "id":
			v, ok := c.str()
			id = string(v)
			return ok
		case "k":
			n, ok := c.uint()
			k = n
			return ok
		}
		return false
	}) {
		return id, k, nil
	}
	var req ChallengeRequest
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&req); err != nil {
		return "", 0, err
	}
	return req.ID, req.K, nil
}

// --- encoding ---------------------------------------------------------------

// verbatim reports whether encoding/json writes s without escapes.
func verbatim(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// appendVerifyResponse renders VerifyResponse exactly as
// json.Encoder.SetIndent("", "  ").Encode does, trailing newline included.
func appendVerifyResponse(dst []byte, v VerifyResponse) []byte {
	dst = append(dst, "{\n  \"ok\": "...)
	if v.OK {
		dst = append(dst, "true"...)
	} else {
		dst = append(dst, "false"...)
	}
	dst = append(dst, ",\n  \"distance\": "...)
	dst = strconv.AppendInt(dst, int64(v.Distance), 10)
	dst = append(dst, ",\n  \"limit\": "...)
	dst = strconv.AppendInt(dst, int64(v.Limit), 10)
	dst = append(dst, ",\n  \"bits\": "...)
	dst = strconv.AppendInt(dst, int64(v.Bits), 10)
	return append(dst, "\n}\n"...)
}

// appendChallengeResponse renders ChallengeResponse identically to the
// indented encoding/json output, including the one-element-per-line
// pairs array and the nil-slice → null / empty-slice → [] distinction.
// It reports false, leaving dst as it was, when a string needs escaping.
func appendChallengeResponse(dst []byte, v ChallengeResponse) ([]byte, bool) {
	if !verbatim(v.ChallengeID) || !verbatim(v.ID) {
		return dst, false
	}
	dst = append(dst, "{\n  \"challenge_id\": \""...)
	dst = append(dst, v.ChallengeID...)
	dst = append(dst, "\",\n  \"id\": \""...)
	dst = append(dst, v.ID...)
	dst = append(dst, "\",\n  \"pairs\": "...)
	switch {
	case v.Pairs == nil:
		dst = append(dst, "null"...)
	case len(v.Pairs) == 0:
		dst = append(dst, "[]"...)
	default:
		dst = append(dst, "[\n"...)
		for i, p := range v.Pairs {
			dst = append(dst, "    "...)
			dst = strconv.AppendInt(dst, int64(p), 10)
			if i < len(v.Pairs)-1 {
				dst = append(dst, ',')
			}
			dst = append(dst, '\n')
		}
		dst = append(dst, "  ]"...)
	}
	dst = append(dst, ",\n  \"fresh\": "...)
	dst = strconv.AppendInt(dst, int64(v.Fresh), 10)
	return append(dst, "\n}\n"...), true
}

// appendErrorResponse renders ErrorResponse identically to the indented
// encoding/json output, or reports false when msg needs escaping.
func appendErrorResponse(dst []byte, msg string) ([]byte, bool) {
	if !verbatim(msg) {
		return dst, false
	}
	dst = append(dst, "{\n  \"error\": \""...)
	dst = append(dst, msg...)
	return append(dst, "\"\n}\n"...), true
}
