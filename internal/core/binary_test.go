package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// binaryTestPairs fabricates deterministic per-stage delay vectors; the
// fleet package can't be used here (it imports core).
func binaryTestPairs(t testing.TB, n, stages int, seed int64) []Pair {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pairs := make([]Pair, n)
	for i := range pairs {
		alpha := make([]float64, stages)
		beta := make([]float64, stages)
		for s := 0; s < stages; s++ {
			alpha[s] = 100 + 10*rng.NormFloat64()
			beta[s] = 100 + 10*rng.NormFloat64()
		}
		pairs[i] = Pair{Alpha: alpha, Beta: beta}
	}
	return pairs
}

// TestBinaryRoundTrip pins binary <-> JSON equivalence: an enrollment
// encoded with AppendBinary decodes to exactly the state the JSON
// round-trip produces, including masked pairs and margins.
func TestBinaryRoundTrip(t *testing.T) {
	for di := 0; di < 4; di++ {
		pairs := binaryTestPairs(t, 24, 13, int64(0xB1+di))
		enr, err := Enroll(pairs, Case2, 0, Options{})
		if err != nil {
			t.Fatal(err)
		}
		data, err := enr.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := LoadEnrollmentBinary(data)
		if err != nil {
			t.Fatalf("decoding device %d: %v", di, err)
		}

		var buf bytes.Buffer
		if err := enr.Save(&buf); err != nil {
			t.Fatal(err)
		}
		jsonLen := buf.Len()
		want, err := LoadEnrollment(&buf)
		if err != nil {
			t.Fatal(err)
		}
		reenc, err := got.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		fromJSON, err := want.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(reenc, fromJSON) {
			t.Fatalf("device %d: binary round-trip diverges from JSON round-trip", di)
		}
		if len(data) >= jsonLen {
			// Not a correctness property, but the codec exists to shrink
			// WAL records; regressing past JSON size defeats it.
			t.Fatalf("device %d: binary %d bytes not smaller than JSON's %d", di, len(data), jsonLen)
		}
	}
}

// TestBinaryRejectsCorruption drives the decoder with hostile inputs:
// every truncation, trailing garbage, and semantic inconsistency must
// error instead of panicking or silently succeeding.
func TestBinaryRejectsCorruption(t *testing.T) {
	enr, err := Enroll(binaryTestPairs(t, 16, 13, 0xB2), Case2, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	valid, err := enr.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}

	// Every prefix is truncated somewhere; none may panic or succeed.
	for n := 0; n < len(valid); n++ {
		if _, err := LoadEnrollmentBinary(valid[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	cases := map[string][]byte{
		"json payload":     []byte(`{"version":1}`),
		"wrong magic":      append([]byte{0x00}, valid[1:]...),
		"wrong version":    append([]byte{valid[0], 99}, valid[2:]...),
		"trailing garbage": append(append([]byte(nil), valid...), 0xAA),
		"bad mode":         append([]byte{valid[0], valid[1], 7}, valid[3:]...),
	}
	for name, data := range cases {
		if _, err := LoadEnrollmentBinary(data); err == nil {
			t.Errorf("%s accepted", name)
		}
	}

	// A flipped response bit breaks the reference-vs-selection check the
	// JSON loader also enforces.
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 1
	if _, err := LoadEnrollmentBinary(flipped); err == nil ||
		!strings.Contains(err.Error(), "inconsistent") {
		t.Errorf("flipped response bit: %v", err)
	}
}

// TestLoadEnrollmentBinaryHugeCount pins that a header claiming the
// maximum selection count over an empty body is rejected before the
// count sizes an allocation (16M selections would be ~1 GB).
func TestLoadEnrollmentBinaryHugeCount(t *testing.T) {
	data := []byte{binaryMagic, binaryVersion, byte(Case2)}
	data = binary.LittleEndian.AppendUint64(data, 0)
	data = binary.LittleEndian.AppendUint32(data, maxBinaryVectors)
	data = binary.LittleEndian.AppendUint16(data, 7)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := LoadEnrollmentBinary(data)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("huge selection count over an empty body accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("rejecting a %d-byte input allocated %d bytes", len(data), grew)
	}
}

// canonicalTestEnrollment encodes a 13-pair, 13-stage Case-2 enrollment
// at a threshold that masks some pairs, so the mask, every configuration
// and the response all end in a partly used byte, and returns the bytes
// with the offset of the first selection's flags byte.
func canonicalTestEnrollment(t testing.TB) (data []byte, firstSel int) {
	pairs := binaryTestPairs(t, 13, 13, 0xB3)
	probe, err := Enroll(pairs, Case2, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	margins := make([]float64, 0, len(probe.Selections))
	for _, sel := range probe.Selections {
		margins = append(margins, sel.Margin)
	}
	sort.Float64s(margins)
	enr, err := Enroll(pairs, Case2, margins[3], Options{})
	if err != nil {
		t.Fatal(err)
	}
	if enr.NumBits()%8 == 0 || !enr.Mask[0] {
		t.Fatalf("fixture keeps %d bits (pair 0 kept: %v); want a partial response byte and pair 0 configured",
			enr.NumBits(), enr.Mask[0])
	}
	data, err = enr.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	return data, 17 + 2 // header, then a 2-byte mask
}

// TestBinaryRejectsNonCanonical mutates one unused bit per canonical-
// encoding rule. Each mutation leaves the decoded state unchanged, so a
// decoder that ignored it would accept bytes that re-encode differently.
func TestBinaryRejectsNonCanonical(t *testing.T) {
	valid, sel := canonicalTestEnrollment(t)
	x := sel + 1 + 8 // flags, margin, then x (2 bytes) and y (2 bytes)
	cases := []struct {
		name string
		off  int
		bit  byte
	}{
		{"mask padding", 18, 0x80},
		{"config x padding", x + 1, 0x20},
		{"config y padding", x + 3, 0x80},
		{"response padding", len(valid) - 1, 0x80},
		{"unknown flag bit", sel, 0x04},
		{"high flag bit", sel, 0x80},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			data := bytes.Clone(valid)
			if data[c.off]&c.bit != 0 {
				t.Fatalf("byte %d bit %#x already set in the valid encoding", c.off, c.bit)
			}
			data[c.off] |= c.bit
			if _, err := LoadEnrollmentBinary(data); err == nil {
				t.Fatal("non-canonical encoding accepted")
			}
		})
	}
	got, err := LoadEnrollmentBinary(valid)
	if err != nil {
		t.Fatalf("valid encoding rejected: %v", err)
	}
	again, err := got.AppendBinary(nil)
	if err != nil || !bytes.Equal(again, valid) {
		t.Fatalf("valid encoding does not round-trip byte-identically (err %v)", err)
	}
}

// FuzzLoadEnrollmentBinary feeds arbitrary bytes to the binary decoder.
// It must never panic, and every accepted input must re-encode to exactly
// the same bytes — the decoder is canonical. The committed corpus
// (testdata/fuzz/FuzzLoadEnrollmentBinary) holds valid encodings with and
// without masked pairs and single-bit padding and flag mutations of them.
func FuzzLoadEnrollmentBinary(f *testing.F) {
	valid, _ := canonicalTestEnrollment(f)
	f.Add(valid)
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := LoadEnrollmentBinary(data)
		if err != nil {
			return
		}
		again, err := e.AppendBinary(nil)
		if err != nil {
			t.Fatalf("re-encoding accepted input: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted %d bytes re-encode to %d different bytes", len(data), len(again))
		}
	})
}
