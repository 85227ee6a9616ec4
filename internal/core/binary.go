package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"ropuf/internal/bits"
	"ropuf/internal/circuit"
)

// Binary enrollment codec. The JSON format (serialize.go) is the
// archival/interchange representation; this is the hot-path one: the
// authserve write-ahead log serializes an enrollment into every enroll
// record, so encoding cost and record size are paid once per device
// enrollment while holding the shard lock. The layout is little-endian
// and bit-packs every boolean vector (configurations, mask, response),
// which makes a record roughly 8x smaller than the equivalent JSON and
// encodes without reflection:
//
//	magic(1) version(1) mode(1) threshold(f64)
//	nSelections(u32) stages(u16)
//	mask: ceil(n/8) bytes, LSB-first
//	per selection: flags(1: bit0 hasConfig, bit1 bit) margin(f64)
//	               [x: ceil(stages/8)] [y: ceil(stages/8)]
//	respBits(u32) response: ceil(respBits/8) bytes, LSB-first
//
// Both decoders funnel through the same semantic validation
// (validateEnrollment), so a binary record admits exactly the states the
// JSON loader admits.
//
// The decoder is canonical: it rejects set padding bits in any packed
// vector and flag bits other than bit0/bit1, so every accepted input b
// satisfies AppendBinary(LoadEnrollmentBinary(b)) == b: the bytes are the
// one encoding of their state and can be kept or compared in place of the
// decoded form.

const (
	binaryMagic   = 0xE5 // first byte; JSON starts with '{', so misrouted payloads fail fast
	binaryVersion = 1

	// maxBinaryVectors caps decoded selection/response counts so hostile
	// or corrupt lengths fail with an error instead of a huge allocation.
	maxBinaryVectors = 1 << 24
)

// AppendBinary appends the binary encoding of e to dst and returns the
// extended slice.
func (e *Enrollment) AppendBinary(dst []byte) ([]byte, error) {
	stages, configured := 0, 0
	for i, sel := range e.Selections {
		if sel.X == nil {
			continue
		}
		configured++
		if len(sel.X) != len(sel.Y) {
			return nil, fmt.Errorf("core: selection %d config lengths differ (%d vs %d)", i, len(sel.X), len(sel.Y))
		}
		if stages == 0 {
			stages = len(sel.X)
		} else if len(sel.X) != stages {
			return nil, fmt.Errorf("core: selection %d has %d stages, earlier selections %d", i, len(sel.X), stages)
		}
	}
	switch {
	case len(e.Selections) != len(e.Mask):
		return nil, fmt.Errorf("core: mask length %d != selections %d", len(e.Mask), len(e.Selections))
	case len(e.Selections) > maxBinaryVectors:
		return nil, fmt.Errorf("core: %d selections exceed the binary format limit", len(e.Selections))
	case stages > math.MaxUint16:
		return nil, fmt.Errorf("core: %d stages exceed the binary format limit", stages)
	case stages == 0 && hasAnyConfig(e.Selections):
		return nil, errors.New("core: zero-length ring configuration")
	}

	respLen := 0
	if e.Response != nil {
		respLen = e.Response.Len()
	}
	if respLen > maxBinaryVectors {
		return nil, fmt.Errorf("core: %d response bits exceed the binary format limit", respLen)
	}
	// Size the output exactly: header, mask, flags and margin per
	// selection, two configurations per configured one, response.
	n := len(e.Selections)
	dst = slices.Grow(dst, 17+(n+7)/8+9*n+2*configured*((stages+7)/8)+4+(respLen+7)/8)

	var scratch [8]byte
	dst = append(dst, binaryMagic, binaryVersion, byte(e.Mode))
	binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(e.Threshold))
	dst = append(dst, scratch[:8]...)
	binary.LittleEndian.PutUint32(scratch[:4], uint32(len(e.Selections)))
	dst = append(dst, scratch[:4]...)
	binary.LittleEndian.PutUint16(scratch[:2], uint16(stages))
	dst = append(dst, scratch[:2]...)
	dst = appendPackedBools(dst, e.Mask)
	for _, sel := range e.Selections {
		flags := byte(0)
		if sel.X != nil {
			flags |= 1
		}
		if sel.Bit {
			flags |= 2
		}
		dst = append(dst, flags)
		binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(sel.Margin))
		dst = append(dst, scratch[:8]...)
		if sel.X != nil {
			dst = appendPackedBools(dst, sel.X)
			dst = appendPackedBools(dst, sel.Y)
		}
	}
	binary.LittleEndian.PutUint32(scratch[:4], uint32(respLen))
	dst = append(dst, scratch[:4]...)
	var cur byte
	for i := 0; i < respLen; i++ {
		if e.Response.Bit(i) {
			cur |= 1 << (i & 7)
		}
		if i&7 == 7 {
			dst = append(dst, cur)
			cur = 0
		}
	}
	if respLen&7 != 0 {
		dst = append(dst, cur)
	}
	return dst, nil
}

// LoadEnrollmentBinary decodes an enrollment written by AppendBinary and
// applies the same semantic validation as the JSON loader.
func LoadEnrollmentBinary(data []byte) (*Enrollment, error) {
	d := binCursor{data: data}
	magic, version, mode := d.byte(), d.byte(), d.byte()
	if d.err == nil && (magic != binaryMagic || version != binaryVersion) {
		return nil, fmt.Errorf("core: not a binary enrollment (magic %#x version %d)", magic, version)
	}
	threshold := math.Float64frombits(d.u64())
	n := int(d.u32())
	stages := int(d.u16())
	if d.err == nil && n > maxBinaryVectors {
		return nil, fmt.Errorf("core: selection count %d exceeds the binary format limit", n)
	}
	// Every selection takes at least 9 bytes (flags + margin): a count
	// the rest of the input cannot hold is truncation, caught before it
	// sizes an allocation (up to maxBinaryVectors selections otherwise).
	if d.err == nil && n > (len(d.data)-d.off)/9 {
		d.err = errors.New("core: truncated binary enrollment")
	}
	if d.err != nil {
		return nil, d.err
	}
	e := &Enrollment{
		Mode:       Mode(mode),
		Threshold:  threshold,
		Selections: make([]Selection, 0, n),
		Mask:       d.packedBools(n),
	}
	for i := 0; i < n && d.err == nil; i++ {
		flags := d.byte()
		if flags&^3 != 0 {
			return nil, fmt.Errorf("core: selection %d has unknown flag bits %#x", i, flags&^3)
		}
		sel := Selection{
			Margin: math.Float64frombits(d.u64()),
			Bit:    flags&2 != 0,
		}
		if flags&1 != 0 {
			if stages == 0 {
				return nil, errors.New("core: selection with zero-length ring configuration")
			}
			sel.X = circuit.Config(d.packedBools(stages))
			sel.Y = circuit.Config(d.packedBools(stages))
		}
		e.Selections = append(e.Selections, sel)
	}
	respLen := int(d.u32())
	if d.err == nil && respLen > maxBinaryVectors {
		return nil, fmt.Errorf("core: response length %d exceeds the binary format limit", respLen)
	}
	if d.err != nil {
		return nil, d.err
	}
	packed := d.packed(respLen)
	if d.err != nil {
		return nil, d.err
	}
	if len(d.data[d.off:]) != 0 {
		return nil, fmt.Errorf("core: %d trailing bytes after binary enrollment", len(d.data[d.off:]))
	}
	resp := bits.New(respLen)
	for i := 0; i < respLen; i++ {
		resp.Append(packed[i>>3]&(1<<(i&7)) != 0)
	}
	e.Response = resp
	if err := validateEnrollment(e); err != nil {
		return nil, err
	}
	return e, nil
}

func hasAnyConfig(sels []Selection) bool {
	for _, sel := range sels {
		if sel.X != nil {
			return true
		}
	}
	return false
}

// appendPackedBools appends bs bit-packed LSB-first, ceil(len/8) bytes.
func appendPackedBools(dst []byte, bs []bool) []byte {
	var cur byte
	for i, b := range bs {
		if b {
			cur |= 1 << (i & 7)
		}
		if i&7 == 7 {
			dst = append(dst, cur)
			cur = 0
		}
	}
	if len(bs)&7 != 0 {
		dst = append(dst, cur)
	}
	return dst
}

// binCursor is a bounds-checked little-endian reader: the first
// out-of-range read latches err and every later read returns zeros, so
// decode loops stay straight-line and check d.err once.
type binCursor struct {
	data []byte
	off  int
	err  error
}

func (d *binCursor) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.data) {
		d.err = errors.New("core: truncated binary enrollment")
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

func (d *binCursor) byte() byte {
	b := d.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *binCursor) u16() uint16 {
	b := d.bytes(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (d *binCursor) u32() uint32 {
	b := d.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *binCursor) u64() uint64 {
	b := d.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// packed reads an n-bit LSB-first vector, ceil(n/8) bytes, whose unused
// high bits in the last byte must be zero (the canonical-encoding rule).
func (d *binCursor) packed(n int) []byte {
	packed := d.bytes((n + 7) / 8)
	if d.err == nil && n&7 != 0 && packed[len(packed)-1]>>(n&7) != 0 {
		d.err = errors.New("core: non-zero padding bits in binary enrollment")
	}
	return packed
}

func (d *binCursor) packedBools(n int) []bool {
	packed := d.packed(n)
	if d.err != nil {
		return nil
	}
	bs := make([]bool, n)
	for i := range bs {
		bs[i] = packed[i>>3]&(1<<(i&7)) != 0
	}
	return bs
}
