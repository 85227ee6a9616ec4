package authserve

import (
	"bytes"
	"math"
	"net/http"
	"runtime"
	"testing"
)

// TestBinaryEnrollWire pins that the binary enroll encoding is
// semantically identical to the JSON body: the same device enrolled
// through either path yields the same enrollment summary, and the binary
// path feeds the normal challenge/verify flow.
func TestBinaryEnrollWire(t *testing.T) {
	devices, _ := testFleet(t, 2, 16)
	_, ts := newTestServer(t, StoreOptions{Seed: 7}, ServerOptions{})
	c := ts.Client()

	// Device 0 via JSON, device 1 via binary.
	code, jsonBody := post(t, c, ts.URL+"/v1/enroll", enrollBody(devices[0]))
	if code != http.StatusOK {
		t.Fatalf("json enroll = %d %s", code, jsonBody)
	}
	req := EnrollRequest{ID: devices[1].ID, Mode: "case2"}
	for _, p := range devices[1].Pairs {
		req.Pairs = append(req.Pairs, PairWire{Alpha: p.Alpha, Beta: p.Beta})
	}
	bin, err := AppendEnrollBinary(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	httpReq, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/enroll", bytes.NewReader(bin))
	httpReq.Header.Set("Content-Type", EnrollContentTypeBinary)
	resp, err := c.Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary enroll = %d", resp.StatusCode)
	}
	var binResp, jsonResp EnrollResponse
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	binResp = mustUnmarshal[EnrollResponse](t, buf.Bytes())
	jsonResp = mustUnmarshal[EnrollResponse](t, jsonBody)
	// Devices from the same synthetic fleet parameters enroll to the same
	// shape; only the IDs differ.
	if binResp.Pairs != jsonResp.Pairs || binResp.ID != devices[1].ID {
		t.Fatalf("binary enroll response %+v vs json %+v", binResp, jsonResp)
	}

	// Round-trip through the decoder directly: the parsed request must
	// match what was encoded.
	var back EnrollRequest
	if err := decodeEnrollBinary(bytes.NewReader(bin), &back); err != nil {
		t.Fatal(err)
	}
	if back.ID != req.ID || back.Mode != req.Mode || len(back.Pairs) != len(req.Pairs) {
		t.Fatalf("decode round-trip = %+v", back)
	}
	for i := range back.Pairs {
		for s := range back.Pairs[i].Alpha {
			if back.Pairs[i].Alpha[s] != req.Pairs[i].Alpha[s] || back.Pairs[i].Beta[s] != req.Pairs[i].Beta[s] {
				t.Fatalf("pair %d stage %d delays diverge", i, s)
			}
		}
	}

	// Hostile bodies answer 400, not 500 or a hang.
	for name, body := range map[string][]byte{
		"truncated": bin[:len(bin)/2],
		"garbage":   []byte("REnot really"),
		"empty":     nil,
	} {
		hr, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/enroll", bytes.NewReader(body))
		hr.Header.Set("Content-Type", EnrollContentTypeBinary)
		resp, err := c.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s binary body = %d, want 400", name, resp.StatusCode)
		}
	}
}

// hostileEnrollBody names 2^20 pairs in 11 bytes: 'R' 'E', version 1,
// default mode, a 1-byte ID "x", then nPairs = 0x00100000.
var hostileEnrollBody = []byte{0x52, 0x45, 0x01, 0x00, 0x01, 0x00, 0x78, 0x00, 0x00, 0x10, 0x00}

// TestDecodeEnrollBinaryHostileCountAllocatesLittle pins that a pair count
// the body cannot hold is rejected before the pairs slice is allocated
// (each pair needs at least its two u16 stage counts).
func TestDecodeEnrollBinaryHostileCountAllocatesLittle(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var req EnrollRequest
	err := decodeEnrollBinary(bytes.NewReader(hostileEnrollBody), &req)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("hostile pair count accepted")
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("rejecting an 11-byte body allocated %d B", d)
	}
}

// FuzzEnrollBinary holds the binary enroll decoder to its encoder: any
// body it accepts must re-encode byte-identically through
// AppendEnrollBinary.
func FuzzEnrollBinary(f *testing.F) {
	valid, err := AppendEnrollBinary(nil, &EnrollRequest{ID: "dev-0001", Mode: "case1", Pairs: []PairWire{
		{Alpha: []float64{1.5, -2}, Beta: []float64{3, math.NaN()}},
		{Alpha: []float64{}, Beta: []float64{math.Inf(1)}},
	}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(hostileEnrollBody)
	f.Fuzz(func(t *testing.T, body []byte) {
		var req EnrollRequest
		if decodeEnrollBinary(bytes.NewReader(body), &req) != nil {
			return
		}
		again, err := AppendEnrollBinary(nil, &req)
		if err != nil {
			t.Fatalf("re-encoding accepted body: %v", err)
		}
		if !bytes.Equal(again, body) {
			t.Fatalf("re-encoded %x, want %x", again, body)
		}
	})
}
