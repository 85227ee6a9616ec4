package authserve

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary enroll wire format. An enrollment body carries every pair's
// per-stage delay vectors — thousands of float64s — and parsing that as
// JSON costs more CPU than the enrollment math itself, so bulk enrollers
// (the loadgen, future fleet importers) may POST /v1/enroll with
// Content-Type application/x-ropuf-enroll instead. The JSON body remains
// the v1 contract and the default; the binary form is an additive,
// semantically identical encoding of EnrollRequest:
//
//	magic 'R' 'E'   version(1)   mode(1: 0=default, 1=case1, 2=case2)
//	idLen(u16) id   nPairs(u32)
//	per pair: nAlpha(u16) alpha f64s...  nBeta(u16) beta f64s...
//
// All integers and floats are little-endian.

// EnrollContentTypeBinary selects the binary enroll encoding on POST
// /v1/enroll.
const EnrollContentTypeBinary = "application/x-ropuf-enroll"

const (
	enrollWireVersion  = 1
	enrollWireMaxID    = math.MaxUint16
	enrollWireMaxPairs = 1 << 20
	enrollWireMaxStage = math.MaxUint16
)

// enrollWireMode maps the wire's mode byte to EnrollRequest.Mode strings
// and back. Index 0 is the empty default (server picks case2).
var enrollWireModes = []string{"", "case1", "case2"}

// AppendEnrollBinary appends the binary encoding of req to dst. It is the
// client-side encoder; the server accepts the result under
// EnrollContentTypeBinary.
func AppendEnrollBinary(dst []byte, req *EnrollRequest) ([]byte, error) {
	modeByte := -1
	for i, m := range enrollWireModes {
		if req.Mode == m {
			modeByte = i
		}
	}
	switch {
	case modeByte < 0:
		return nil, fmt.Errorf("authserve: mode %q has no binary encoding", req.Mode)
	case len(req.ID) > enrollWireMaxID:
		return nil, fmt.Errorf("authserve: device ID of %d bytes exceeds the wire limit", len(req.ID))
	case len(req.Pairs) > enrollWireMaxPairs:
		return nil, fmt.Errorf("authserve: %d pairs exceed the wire limit", len(req.Pairs))
	}
	var scratch [8]byte
	dst = append(dst, 'R', 'E', enrollWireVersion, byte(modeByte))
	binary.LittleEndian.PutUint16(scratch[:2], uint16(len(req.ID)))
	dst = append(dst, scratch[:2]...)
	dst = append(dst, req.ID...)
	binary.LittleEndian.PutUint32(scratch[:4], uint32(len(req.Pairs)))
	dst = append(dst, scratch[:4]...)
	appendF64s := func(dst []byte, vs []float64) ([]byte, error) {
		if len(vs) > enrollWireMaxStage {
			return nil, fmt.Errorf("authserve: %d stages exceed the wire limit", len(vs))
		}
		binary.LittleEndian.PutUint16(scratch[:2], uint16(len(vs)))
		dst = append(dst, scratch[:2]...)
		for _, v := range vs {
			binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(v))
			dst = append(dst, scratch[:8]...)
		}
		return dst, nil
	}
	var err error
	for _, p := range req.Pairs {
		if dst, err = appendF64s(dst, p.Alpha); err != nil {
			return nil, err
		}
		if dst, err = appendF64s(dst, p.Beta); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// decodeEnrollBinary parses a binary enroll body. Errors are client
// errors (400): the framing is length-prefixed throughout, so any
// truncation or oversized count is detected before large allocations.
func decodeEnrollBinary(r io.Reader, req *EnrollRequest) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("authserve: reading enroll body: %w", err)
	}
	if len(data) < 10 || data[0] != 'R' || data[1] != 'E' {
		return fmt.Errorf("authserve: not a binary enroll body")
	}
	if data[2] != enrollWireVersion {
		return fmt.Errorf("authserve: unsupported binary enroll version %d", data[2])
	}
	if int(data[3]) >= len(enrollWireModes) {
		return fmt.Errorf("authserve: unknown binary enroll mode %d", data[3])
	}
	req.Mode = enrollWireModes[data[3]]
	off := 4
	need := func(n int) bool { return len(data)-off >= n }
	if !need(2) {
		return fmt.Errorf("authserve: truncated binary enroll body")
	}
	idLen := int(binary.LittleEndian.Uint16(data[off:]))
	off += 2
	if !need(idLen) {
		return fmt.Errorf("authserve: truncated binary enroll body")
	}
	req.ID = string(data[off : off+idLen])
	off += idLen
	if !need(4) {
		return fmt.Errorf("authserve: truncated binary enroll body")
	}
	nPairs := int(binary.LittleEndian.Uint32(data[off:]))
	off += 4
	if nPairs > enrollWireMaxPairs {
		return fmt.Errorf("authserve: %d pairs exceed the wire limit", nPairs)
	}
	if !need(nPairs * 4) { // two u16 stage counts per pair, checked before allocating
		return fmt.Errorf("authserve: truncated binary enroll body")
	}
	readF64s := func() ([]float64, error) {
		if !need(2) {
			return nil, fmt.Errorf("authserve: truncated binary enroll body")
		}
		n := int(binary.LittleEndian.Uint16(data[off:]))
		off += 2
		if !need(n * 8) {
			return nil, fmt.Errorf("authserve: truncated binary enroll body")
		}
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
			off += 8
		}
		return vs, nil
	}
	req.Pairs = make([]PairWire, nPairs)
	for i := range req.Pairs {
		if req.Pairs[i].Alpha, err = readF64s(); err != nil {
			return err
		}
		if req.Pairs[i].Beta, err = readF64s(); err != nil {
			return err
		}
	}
	if off != len(data) {
		return fmt.Errorf("authserve: %d trailing bytes after binary enroll body", len(data)-off)
	}
	return nil
}
