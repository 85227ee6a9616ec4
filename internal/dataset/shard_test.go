package dataset

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// tinyVTConfig trades the 512-RO grid for a 4×4 one so hostile-file tests
// can rebuild corpora cheaply.
func tinyVTConfig() VTConfig {
	cfg := DefaultVTConfig()
	cfg.NumBoards = 5
	cfg.NumEnvBoards = 2
	cfg.GridW = 4
	cfg.GridH = 4
	return cfg
}

// writeCorpus shards ds into a fresh directory and returns it with the
// manifest.
func writeCorpus(t *testing.T, ds *Dataset, shards int, format Format) (string, *Manifest) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "corpus")
	w, err := NewShardWriter(dir, shards, format)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range ds.Boards {
		if err := w.WriteBoard(b); err != nil {
			t.Fatal(err)
		}
	}
	man, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	return dir, man
}

func TestShardRoundTrip(t *testing.T) {
	ds, err := GenerateVT(smallVTConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []Format{FormatCSV, FormatBin} {
		for _, shards := range []int{1, 2, 3, 7, 16} {
			t.Run(fmt.Sprintf("%s/shards=%d", format, shards), func(t *testing.T) {
				dir, man := writeCorpus(t, ds, shards, format)
				if man.Shards != shards || man.Boards != len(ds.Boards) {
					t.Fatalf("manifest %d shards %d boards, want %d and %d",
						man.Shards, man.Boards, shards, len(ds.Boards))
				}
				r, err := OpenShards(dir)
				if err != nil {
					t.Fatal(err)
				}
				got, err := r.ReadAll()
				if err != nil {
					t.Fatal(err)
				}
				if len(got.Boards) != len(ds.Boards) {
					t.Fatalf("read %d boards, wrote %d", len(got.Boards), len(ds.Boards))
				}
				var rows int64
				for i, b := range got.Boards {
					// Cyclic shard reading must reproduce the global write
					// order exactly, not just the set of boards.
					if b.ID != ds.Boards[i].ID {
						t.Fatalf("position %d holds board %d, want %d", i, b.ID, ds.Boards[i].ID)
					}
					equalBoards(t, "round trip", ds.Boards[i], b)
					for _, f := range b.Freq {
						rows += int64(len(f))
					}
				}
				if rows != man.Rows {
					t.Fatalf("read %d rows, manifest says %d", rows, man.Rows)
				}
				if len(got.EnvIDs) != len(ds.EnvIDs) {
					t.Fatalf("env IDs %v, want %v", got.EnvIDs, ds.EnvIDs)
				}
			})
		}
	}
}

func TestShardWriterValidation(t *testing.T) {
	if _, err := NewShardWriter(t.TempDir(), 0, FormatCSV); err == nil {
		t.Fatal("accepted zero shards")
	}
	if _, err := NewShardWriter(t.TempDir(), 2, Format("xml")); err == nil {
		t.Fatal("accepted unknown format")
	}
	ds, err := GenerateVT(tinyVTConfig())
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewShardWriter(filepath.Join(t.TempDir(), "c"), 2, FormatBin)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBoard(ds.Boards[0]); err != nil {
		t.Fatal(err)
	}
	if boards, rows, _ := w.Stats(); boards != 1 || rows == 0 {
		t.Fatalf("Stats after one board: boards=%d rows=%d", boards, rows)
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBoard(ds.Boards[1]); err == nil {
		t.Fatal("WriteBoard accepted after Close")
	}
	if _, err := w.Close(); err == nil {
		t.Fatal("Close accepted twice")
	}
}

func TestParseManifestRejects(t *testing.T) {
	good := func() *Manifest {
		return &Manifest{
			Version: 1,
			Format:  FormatBin,
			Shards:  2,
			Boards:  3,
			Rows:    30,
			Files: []ShardInfo{
				{File: "shard-0000.bin", Boards: 2, Rows: 20, Bytes: 100, CRC32C: 1},
				{File: "shard-0001.bin", Boards: 1, Rows: 10, Bytes: 50, CRC32C: 2},
			},
		}
	}
	encode := func(m *Manifest) []byte {
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if _, err := parseManifest(encode(good())); err != nil {
		t.Fatalf("rejected the good manifest: %v", err)
	}

	cases := []struct {
		name   string
		data   []byte
		mutate func(*Manifest)
		want   string
	}{
		{name: "oversized", data: bytes.Repeat([]byte{' '}, maxManifestSize+1), want: "limit"},
		{name: "not json", data: []byte("??"), want: "parse manifest"},
		{name: "unknown field", data: []byte(`{"version":1,"format":"bin","shards":0,"boards":0,"rows":0,"files":[],"extra":1}`), want: "parse manifest"},
		{name: "wrong version", mutate: func(m *Manifest) { m.Version = 2 }, want: "version"},
		{name: "unknown format", mutate: func(m *Manifest) { m.Format = "xml" }, want: "unknown format"},
		{name: "shard count mismatch", mutate: func(m *Manifest) { m.Shards = 3 }, want: "shard count"},
		{name: "no shards", mutate: func(m *Manifest) { m.Shards = 0; m.Boards = 0; m.Rows = 0; m.Files = nil }, want: "no shards"},
		{name: "misnamed shard", mutate: func(m *Manifest) { m.Files[1].File = "shard-0002.bin" }, want: "named"},
		{name: "wrong extension", mutate: func(m *Manifest) { m.Files[0].File = "shard-0000.csv" }, want: "named"},
		{name: "negative rows", mutate: func(m *Manifest) { m.Files[0].Rows = -1; m.Rows = 9 }, want: "negative"},
		{name: "board sum mismatch", mutate: func(m *Manifest) { m.Boards = 4 }, want: "boards"},
		{name: "row sum mismatch", mutate: func(m *Manifest) { m.Rows = 31 }, want: "rows"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.data
			if tc.mutate != nil {
				m := good()
				tc.mutate(m)
				data = encode(m)
			}
			_, err := parseManifest(data)
			if err == nil {
				t.Fatal("hostile manifest accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err.Error(), tc.want)
			}
		})
	}
}

// readCorpus runs the full streaming read and returns its error.
func readCorpus(dir string) error {
	r, err := OpenShards(dir)
	if err != nil {
		return err
	}
	return r.Boards(func(*Board) error { return nil })
}

func TestShardReaderHostileFiles(t *testing.T) {
	ds, err := GenerateVT(tinyVTConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []Format{FormatCSV, FormatBin} {
		format := format
		shard1 := "shard-0001" + string("."+format)
		cases := []struct {
			name    string
			tamper  func(t *testing.T, dir string)
			openErr bool // expect OpenShards itself to fail
		}{
			{
				name:    "missing shard",
				openErr: true,
				tamper: func(t *testing.T, dir string) {
					if err := os.Remove(filepath.Join(dir, shard1)); err != nil {
						t.Fatal(err)
					}
				},
			},
			{
				name:    "truncated shard",
				openErr: true,
				tamper: func(t *testing.T, dir string) {
					path := filepath.Join(dir, shard1)
					data, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
						t.Fatal(err)
					}
				},
			},
			{
				name:    "trailing garbage",
				openErr: true,
				tamper: func(t *testing.T, dir string) {
					f, err := os.OpenFile(filepath.Join(dir, shard1), os.O_APPEND|os.O_WRONLY, 0)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := f.WriteString("junk"); err != nil {
						t.Fatal(err)
					}
					if err := f.Close(); err != nil {
						t.Fatal(err)
					}
				},
			},
			{
				// Same size, different bytes: only the CRC (or record parse)
				// can catch it, and must.
				name: "flipped byte",
				tamper: func(t *testing.T, dir string) {
					path := filepath.Join(dir, shard1)
					data, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					data[len(data)/2] ^= 0x20
					if err := os.WriteFile(path, data, 0o644); err != nil {
						t.Fatal(err)
					}
				},
			},
			{
				name: "corrupted header",
				tamper: func(t *testing.T, dir string) {
					path := filepath.Join(dir, shard1)
					data, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					data[0] ^= 0xFF // bin: magic byte; csv: header column
					if err := os.WriteFile(path, data, 0o644); err != nil {
						t.Fatal(err)
					}
				},
			},
			{
				name:    "manifest claims extra shard",
				openErr: true,
				tamper: func(t *testing.T, dir string) {
					path := filepath.Join(dir, ManifestName)
					data, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					var m Manifest
					if err := json.Unmarshal(data, &m); err != nil {
						t.Fatal(err)
					}
					m.Shards++
					m.Files = append(m.Files, ShardInfo{File: shardName(m.Shards-1, format)})
					out, err := json.Marshal(&m)
					if err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, out, 0o644); err != nil {
						t.Fatal(err)
					}
				},
			},
			{
				name: "boards swapped across shards",
				tamper: func(t *testing.T, dir string) {
					// Cross-wire two shard files; per-shard CRC or board/row
					// accounting must notice even though each file is intact.
					a := filepath.Join(dir, "shard-0000"+string("."+format))
					b := filepath.Join(dir, shard1)
					da, err := os.ReadFile(a)
					if err != nil {
						t.Fatal(err)
					}
					db, err := os.ReadFile(b)
					if err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(a, db, 0o644); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(b, da, 0o644); err != nil {
						t.Fatal(err)
					}
				},
			},
		}
		for _, tc := range cases {
			t.Run(string(format)+"/"+tc.name, func(t *testing.T) {
				dir, _ := writeCorpus(t, ds, 2, format)
				if err := readCorpus(dir); err != nil {
					t.Fatalf("pristine corpus failed: %v", err)
				}
				tc.tamper(t, dir)
				r, err := OpenShards(dir)
				if tc.openErr {
					if err == nil {
						t.Fatal("OpenShards accepted the tampered corpus")
					}
					return
				}
				if err != nil {
					// Stricter than required: caught at open already.
					return
				}
				if err := r.Boards(func(*Board) error { return nil }); err == nil {
					t.Fatal("streaming read accepted the tampered corpus")
				}
			})
		}
	}

	// A CRC-valid record claiming the format's RO and condition limits in
	// a 30-byte body, with the manifest's byte count updated to match so
	// the decoder (not OpenShards) meets it: rejected on the body-size
	// check before anything the claim sizes is allocated.
	t.Run("bin/oversized claim allocates nothing", func(t *testing.T) {
		dir, _ := writeCorpus(t, ds, 2, FormatBin)
		rec := append([]byte(shardMagic), oversizedClaimRecord()...)
		if err := os.WriteFile(filepath.Join(dir, "shard-0001.bin"), rec, 0o644); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, ManifestName)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var m Manifest
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		m.Files[1].Bytes = int64(len(rec))
		if data, err = json.Marshal(&m); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenShards(dir)
		if err != nil {
			t.Fatal(err)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err = r.Boards(func(*Board) error { return nil })
		runtime.ReadMemStats(&m1)
		if err == nil || !strings.Contains(err.Error(), "record body is 30 bytes") {
			t.Fatalf("oversized claim: error %v, want the body-size rejection", err)
		}
		if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc >= 1<<20 {
			t.Fatalf("rejecting the oversized claim allocated %d bytes, want < 1 MiB", alloc)
		}
	})
}
