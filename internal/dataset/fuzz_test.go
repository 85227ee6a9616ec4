package dataset

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io"
	"testing"
)

// fuzzSeedRecord frames one valid tiny board record — the known-good shape
// the fuzzer mutates.
func fuzzSeedRecord(t testing.TB) []byte {
	b := &Board{
		ID:    7,
		GridW: 2,
		GridH: 1,
		X:     []int{0, 1},
		Y:     []int{0, 0},
		Freq: map[Condition][]float64{
			NominalCondition: {95.5, 96.25},
			{980, 250}:       {94.0, 95.125},
		},
	}
	body, err := appendBinBoard(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	return frameRecord(body)
}

// sweptRecord frames a board record of n ROs measured under conds, with
// distinct position and frequency values throughout.
func sweptRecord(t testing.TB, id, n int, conds []Condition) []byte {
	b := &Board{ID: id, GridW: n, GridH: 1, X: make([]int, n), Y: make([]int, n), Freq: map[Condition][]float64{}}
	for i := range b.X {
		b.X[i] = i
	}
	for ci, c := range conds {
		f := make([]float64, n)
		for i := range f {
			f[i] = 90 + float64(ci) + float64(i)/64
		}
		b.Freq[c] = f
	}
	body, err := appendBinBoard(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	return frameRecord(body)
}

// frameRecord wraps a record body in its length + CRC32-C frame.
func frameRecord(body []byte) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(body, castagnoli))
	return append(hdr[:], body...)
}

// oversizedClaimRecord is a CRC-valid 30-byte record whose header claims
// the format's limits, maxShardROs ROs under maxShardConds conditions: a
// decoder that sizes its buffers from the claim before checking the body
// length allocates tens of megabytes for it.
func oversizedClaimRecord() []byte {
	body := make([]byte, 30)
	binary.LittleEndian.PutUint32(body[0:4], 1)               // id
	binary.LittleEndian.PutUint16(body[4:6], 1024)            // gridW
	binary.LittleEndian.PutUint16(body[6:8], 1024)            // gridH
	binary.LittleEndian.PutUint32(body[8:12], maxShardROs)    // numROs
	binary.LittleEndian.PutUint16(body[12:14], maxShardConds) // numConds
	return frameRecord(body)
}

// FuzzShardBin feeds arbitrary bytes to the framed-record decoder the way
// binCursor does: records are read back to back into one reused scratch
// until one fails. Corrupt input must produce an error, never a panic or
// an oversized allocation, and every decoded board must be internally
// consistent. Differentially, every accepted record is decoded again into
// a fresh scratch and into one left dirty by a larger 9-condition record:
// all three boards must be equal, so no condition or RO of an earlier
// record survives into a later one.
func FuzzShardBin(f *testing.F) {
	dirty := sweptRecord(f, 1, 24, sweepOrder)
	seed := fuzzSeedRecord(f)
	f.Add(seed)
	f.Add(append(append([]byte{}, seed...), seed...)) // two records back to back
	f.Add(seed[:len(seed)/2])                         // truncated mid-body
	f.Add(seed[:6])                                   // truncated mid-header
	// Frame that claims a giant body.
	huge := append([]byte{}, seed...)
	binary.LittleEndian.PutUint32(huge[0:4], 1<<31)
	f.Add(huge)
	// Body bytes damaged under an intact CRC field.
	bad := append([]byte{}, seed...)
	bad[len(bad)-1] ^= 0xFF
	f.Add(bad)
	f.Add(oversizedClaimRecord())
	// A 9-condition record followed by a 1-condition one: the second
	// decodes into the board the first left behind.
	f.Add(append(sweptRecord(f, 1, 16, sweepOrder), sweptRecord(f, 2, 4, sweepOrder[:1])...))
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bytes.NewReader(data)
		var s binScratch
		for {
			start := len(data) - br.Len()
			b, rows, err := readBinBoard(br, &s)
			if err != nil {
				return // rejection is the expected outcome for garbage
			}
			rec := data[start : len(data)-br.Len()]
			fresh, _, err := readBinBoard(bytes.NewReader(rec), new(binScratch))
			if err != nil {
				t.Fatalf("record decodes in sequence but not into a fresh board: %v", err)
			}
			var used binScratch
			if _, _, err := readBinBoard(bytes.NewReader(dirty), &used); err != nil {
				t.Fatal(err)
			}
			reused, _, err := readBinBoard(bytes.NewReader(rec), &used)
			if err != nil {
				t.Fatalf("record decodes into a fresh board but not a used one: %v", err)
			}
			equalBoards(t, "in sequence vs fresh", b, fresh)
			equalBoards(t, "used vs fresh", reused, fresh)
			n := len(b.X)
			if len(b.Y) != n {
				t.Fatalf("decoded board has %d X but %d Y", n, len(b.Y))
			}
			var want int64
			for _, fr := range b.Freq {
				if len(fr) != n {
					t.Fatalf("decoded condition has %d ROs, board has %d", len(fr), n)
				}
				want += int64(n)
			}
			if rows != want {
				t.Fatalf("row count %d, board holds %d", rows, want)
			}
		}
	})
}

// FuzzManifest asserts hostile manifest bytes either parse into a manifest
// that satisfies every invariant OpenShards relies on, or error — never
// panic.
func FuzzManifest(f *testing.F) {
	good := &Manifest{
		Version: 1,
		Format:  FormatBin,
		Shards:  1,
		Boards:  2,
		Rows:    4,
		Files:   []ShardInfo{{File: "shard-0000.bin", Boards: 2, Rows: 4, Bytes: 99, CRC32C: 5}},
	}
	data, err := json.Marshal(good)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(bytes.Replace(data, []byte(`"version":1`), []byte(`"version":-1`), 1))
	f.Add(bytes.Replace(data, []byte(`"bin"`), []byte(`"exe"`), 1))
	f.Add(bytes.Replace(data, []byte(`"shards":1`), []byte(`"shards":1000000`), 1))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1,"format":"csv","shards":1,"boards":0,"rows":0,"files":[{"file":"shard-0000.csv"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseManifest(data)
		if err != nil {
			return
		}
		if m.Shards != len(m.Files) || m.Shards <= 0 {
			t.Fatalf("accepted manifest with %d shards over %d files", m.Shards, len(m.Files))
		}
		boards, rows := 0, int64(0)
		for i, fi := range m.Files {
			if fi.File != shardName(i, m.Format) {
				t.Fatalf("accepted shard name %q at index %d", fi.File, i)
			}
			if fi.Boards < 0 || fi.Rows < 0 || fi.Bytes < 0 {
				t.Fatalf("accepted negative counts in %q", fi.File)
			}
			boards += fi.Boards
			rows += fi.Rows
		}
		if boards != m.Boards || rows != m.Rows {
			t.Fatalf("accepted inconsistent totals: %d/%d boards, %d/%d rows",
				m.Boards, boards, m.Rows, rows)
		}
	})
}

// TestFuzzSeedsDecode keeps the happy-path fuzz seed honest: the framed
// record must actually decode back to the board it encodes.
func TestFuzzSeedsDecode(t *testing.T) {
	seed := fuzzSeedRecord(t)
	br := bytes.NewReader(seed)
	b, rows, err := readBinBoard(br, new(binScratch))
	if err != nil {
		t.Fatal(err)
	}
	if b.ID != 7 || rows != 4 || len(b.Freq) != 2 {
		t.Fatalf("seed decoded to board %d with %d rows, %d conditions", b.ID, rows, len(b.Freq))
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatal("seed record has trailing bytes")
	}
}
