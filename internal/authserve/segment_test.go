package authserve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"ropuf/internal/auth"
	"ropuf/internal/core"
	"ropuf/internal/fleet"
	"ropuf/internal/rngx"
)

// segmentVerifier is an empty verifier at the store's default tolerance.
func segmentVerifier(t testing.TB) *auth.Verifier {
	v, err := auth.NewVerifier(0.10, rngx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// fuzzSegmentSeed encodes a small shard (two devices, consumed pairs on
// one) — a known-good segment that gives the fuzzer the real shape of the
// format to mutate.
func fuzzSegmentSeed(t testing.TB) []byte {
	v := segmentVerifier(t)
	devices, err := fleet.Synthetic(2, 8, 5, 0xF0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range devices {
		if _, err := v.Enroll(d.ID, d.Pairs, core.Case2); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := v.NewChallenge(devices[0].ID, 3); err != nil {
		t.Fatal(err)
	}
	seg, err := appendSegment(nil, v)
	if err != nil {
		t.Fatal(err)
	}
	return seg
}

// reframe rewrites the checksum of every length-delimited record in
// data, so a mutation inside a payload reaches the record decoder and
// replay instead of dying at the CRC.
func reframe(data []byte) []byte {
	out := bytes.Clone(data)
	for off := 0; len(out)-off >= walHeaderLen; {
		n := int(binary.LittleEndian.Uint32(out[off:]))
		if n == 0 || n > len(out)-off-walHeaderLen {
			break
		}
		payload := out[off+walHeaderLen : off+walHeaderLen+n]
		binary.LittleEndian.PutUint32(out[off+4:], crc32.Checksum(payload, walTable))
		off += walHeaderLen + n
	}
	return out
}

// FuzzSegment feeds arbitrary bytes to the segment loader, both as given
// and with their record checksums recomputed (reframe). The loader must
// never panic, and anything it accepts must re-encode to a segment that
// loads back to the same devices and fresh counts and re-encodes
// byte-identically — the segment is a deterministic function of state.
// The committed corpus (testdata/fuzz/FuzzSegment) holds damaged
// variants of the seed: torn, bit-flipped, trailing garbage, and a
// consume record with no enroll before it.
func FuzzSegment(f *testing.F) {
	f.Add(fuzzSegmentSeed(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSegmentRoundTrip(t, data)
		checkSegmentRoundTrip(t, reframe(data))
	})
}

// checkSegmentRoundTrip loads data as a segment; if the loader accepts
// it, the state must survive re-encoding exactly.
func checkSegmentRoundTrip(t *testing.T, data []byte) {
	v := segmentVerifier(t)
	if err := loadSegment(v, data, "fuzz"); err != nil {
		return // rejected corrupt input: exactly what we want
	}
	enc, err := appendSegment(nil, v)
	if err != nil {
		t.Fatalf("re-encoding accepted segment: %v", err)
	}
	w := segmentVerifier(t)
	if err := loadSegment(w, enc, "re-encoded"); err != nil {
		t.Fatalf("loading re-encoded segment: %v", err)
	}
	ids := v.DeviceIDs()
	if got := w.DeviceIDs(); !slices.Equal(got, ids) {
		t.Fatalf("round trip devices %q, want %q", got, ids)
	}
	for _, id := range ids {
		a, _ := v.NumFresh(id)
		b, _ := w.NumFresh(id)
		if a != b {
			t.Fatalf("device %q: fresh %d after round trip, want %d", id, b, a)
		}
	}
	again, err := appendSegment(nil, w)
	if err != nil {
		t.Fatalf("re-encoding round-tripped segment: %v", err)
	}
	if !bytes.Equal(again, enc) {
		t.Fatalf("re-encoding is not deterministic: %d vs %d bytes", len(again), len(enc))
	}
}

// TestLoadSegmentRejects pins one deterministic input per way a segment
// can be wrong — at the frame level (torn, trailing bytes, bad checksum)
// and, with valid checksums, at the payload and replay level — and
// checks that each fails the load while the undamaged segment loads.
func TestLoadSegmentRejects(t *testing.T) {
	v := segmentVerifier(t)
	devices, err := fleet.Synthetic(1, 8, 5, 0xF1)
	if err != nil {
		t.Fatal(err)
	}
	id := devices[0].ID
	if _, err := v.Enroll(id, devices[0].Pairs, core.Case2); err != nil {
		t.Fatal(err)
	}
	if _, err := v.NewChallenge(id, 3); err != nil {
		t.Fatal(err)
	}
	good, err := appendSegment(nil, v)
	if err != nil {
		t.Fatal(err)
	}
	if err := loadSegment(segmentVerifier(t), good, "good"); err != nil {
		t.Fatalf("undamaged segment rejected: %v", err)
	}
	rec, err := v.Device(id)
	if err != nil {
		t.Fatal(err)
	}
	enr := rec.Binary()
	mustPayload := func(p []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	enroll := walFrame(mustPayload(encodeEnrollRecord(id, enr)))
	consume := func(pairs ...int) []byte {
		return walFrame(mustPayload(encodeConsumeRecord(id, pairs)))
	}
	// Hand-built records are well formed: the damaged cases below differ
	// from this only in the damage.
	if err := loadSegment(segmentVerifier(t), slices.Concat(enroll, consume(0)), "hand-built"); err != nil {
		t.Fatalf("hand-built segment rejected: %v", err)
	}
	// A consume payload whose count claims one more index than it holds.
	overcount := mustPayload(encodeConsumeRecord(id, []int{0}))
	binary.LittleEndian.PutUint32(overcount[3+len(id):], 2)
	flipped := bytes.Clone(good)
	flipped[walHeaderLen+3] ^= 0x01 // first byte of the first device ID

	cases := []struct {
		name string
		data []byte
	}{
		{"garbage", []byte("{")},
		{"torn final record", good[:len(good)-1]},
		{"trailing zero byte", append(bytes.Clone(good), 0)},
		{"flipped payload byte", flipped},
		{"unknown record type", walFrame([]byte{9, 1, 0, 'x'})},
		{"short payload", walFrame([]byte{walRecEnroll, 0})},
		{"device ID overruns payload", walFrame([]byte{walRecEnroll, 0xFF, 0, 'x'})},
		{"consume count overruns", walFrame(overcount)},
		{"consume before enroll", consume(0)},
		{"pair index out of range", slices.Concat(enroll, consume(len(devices[0].Pairs)))},
		{"truncated enrollment", walFrame(mustPayload(encodeEnrollRecord(id, enr[:len(enr)/2])))},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := segmentVerifier(t)
			if err := loadSegment(w, c.data, c.name); err == nil {
				t.Fatalf("corrupt segment accepted (%d devices restored)", len(w.DeviceIDs()))
			}
		})
	}
}

// TestSegmentGolden pins the bytes of a compacted segment for a fixed
// shard state: a Case-1 device enrolled at a threshold that masks pairs
// (one of them degenerate, so it stores no configuration) and spans more
// than one 64-bit word of pairs, Case-2 devices with consumed pairs, and
// one never-challenged device. The segment is the store's only
// persistence format, so a change to how the store keeps devices in
// memory must leave these bytes exactly as they are.
func TestSegmentGolden(t *testing.T) {
	dir := t.TempDir()
	masked, err := fleet.Synthetic(1, 70, 7, 0x5E6)
	if err != nil {
		t.Fatal(err)
	}
	m := masked[0]
	m.ID = "masked-0"
	m.Pairs[3].Beta = slices.Clone(m.Pairs[3].Alpha) // degenerate under Case-1
	probe, err := core.Enroll(m.Pairs, core.Case1, 0, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	margins := make([]float64, 0, len(probe.Selections))
	for _, sel := range probe.Selections {
		margins = append(margins, sel.Margin)
	}
	slices.Sort(margins)
	enr, err := core.Enroll(m.Pairs, core.Case1, margins[len(margins)/3], core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if enr.Selections[3].X != nil || enr.NumBits() >= len(m.Pairs)-1 {
		t.Fatalf("masked device keeps %d of %d pairs (pair 3 configured: %v); want a degenerate pair and more masked",
			enr.NumBits(), len(m.Pairs), enr.Selections[3].X != nil)
	}
	enc, err := enr.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := encodeEnrollRecord(m.ID, enc)
	if err != nil {
		t.Fatal(err)
	}
	// The store enrolls at threshold 0, so the masked device enters the
	// way a replayed log record does.
	if err := os.WriteFile(walPathFor(dir, 0), walFrame(payload), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(StoreOptions{Dir: dir, Shards: 1, Seed: 0x5E6, CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	devices, err := fleet.Synthetic(3, 8, 5, 0x5E7)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range devices {
		if _, err := s.Enroll(d.ID, d.Pairs, core.Case2); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		id string
		k  int
	}{{m.ID, 9}, {m.ID, 20}, {devices[0].ID, 3}, {devices[1].ID, 2}, {devices[0].ID, 4}} {
		if _, _, _, err := s.Challenge(c.id, c.k); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SaveAll(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "shard-0000.seg"))
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "segment_v1.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to generate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("segment bytes drifted from %s (%d bytes, want %d); the on-disk format changed", golden, len(got), len(want))
	}
}

// TestResidentBytesPerDevice bounds what an enrolled device costs in
// memory once the store is serving: loading 2,000 devices of 128 pairs ×
// 13 stages from a segment, as Open does on restart, may grow the live
// heap by at most 4 KB per device. A bit-packed record (the binary
// enrollment plus three bitsets) measures about 2 KB; keeping a decoded
// core.Enrollment per device costs about 14 KB and fails the budget.
func TestResidentBytesPerDevice(t *testing.T) {
	const devices, budget = 2000, 4096
	silicon, err := fleet.Synthetic(16, 128, 13, 0x4E5)
	if err != nil {
		t.Fatal(err)
	}
	var seg []byte
	for i := 0; i < devices; i++ {
		enr, err := core.Enroll(silicon[i%len(silicon)].Pairs, core.Case2, 0, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		enc, err := enr.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := encodeEnrollRecord(fmt.Sprintf("dev-%05d", i), enc)
		if err != nil {
			t.Fatal(err)
		}
		seg = appendWALFrame(seg, payload)
	}
	path := filepath.Join(t.TempDir(), "shard-0000.seg")
	if err := os.WriteFile(path, seg, 0o644); err != nil {
		t.Fatal(err)
	}
	seg = nil
	v := segmentVerifier(t)
	before := liveHeapAfterGC()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := loadSegment(v, data, path); err != nil {
		t.Fatal(err)
	}
	data = nil // the verifier must not keep the file buffer alive
	grew := float64(liveHeapAfterGC()) - float64(before)
	if v.NumDevices() != devices {
		t.Fatalf("loaded %d devices, want %d", v.NumDevices(), devices)
	}
	runtime.KeepAlive(v)
	perDevice := grew / devices
	t.Logf("live heap grew %.0f bytes per device", perDevice)
	if perDevice > budget {
		t.Fatalf("live heap grew %.0f bytes per resident device, budget %d", perDevice, budget)
	}
}

// liveHeapAfterGC runs a full collection and returns the heap it marked
// live.
func liveHeapAfterGC() uint64 {
	runtime.GC()
	return heapLiveBytes()
}
