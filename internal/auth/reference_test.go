package auth

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"ropuf/internal/bits"
	"ropuf/internal/core"
	"ropuf/internal/rngx"
)

// refVerifier is the reference model for Verifier: the same operations on
// the decoded form, with one bool per pair for the consumed set, the mask
// read from core.Enrollment.Mask and reference bits from each
// core.Selection. The differential test pins the bit-packed records
// against it.
type refVerifier struct {
	tolerance float64
	devices   map[string]*refRecord
	rng       *rngx.RNG
}

type refRecord struct {
	enr  *core.Enrollment
	used []bool
}

func newRefVerifier(tolerance float64, rng *rngx.RNG) *refVerifier {
	return &refVerifier{tolerance: tolerance, devices: map[string]*refRecord{}, rng: rng}
}

func (v *refVerifier) Enroll(id string, pairs []core.Pair, mode core.Mode) error {
	if id == "" {
		return errors.New("auth: empty device ID")
	}
	if _, ok := v.devices[id]; ok {
		return fmt.Errorf("auth: device %q: %w", id, ErrDuplicateDevice)
	}
	enr, err := core.Enroll(pairs, mode, 0, core.Options{})
	if err != nil {
		return fmt.Errorf("auth: enrolling %q: %w", id, err)
	}
	v.devices[id] = &refRecord{enr: enr, used: make([]bool, len(enr.Selections))}
	return nil
}

func (v *refVerifier) ApplyEnroll(id string, enr *core.Enrollment) error {
	if id == "" {
		return errors.New("auth: empty device ID")
	}
	if _, ok := v.devices[id]; ok {
		return fmt.Errorf("auth: device %q: %w", id, ErrDuplicateDevice)
	}
	v.devices[id] = &refRecord{enr: enr, used: make([]bool, len(enr.Selections))}
	return nil
}

func (v *refVerifier) Unenroll(id string) bool {
	_, ok := v.devices[id]
	delete(v.devices, id)
	return ok
}

func (v *refVerifier) setUsed(id string, pairs []int, to bool) error {
	rec, ok := v.devices[id]
	if !ok {
		return fmt.Errorf("auth: %w %q", ErrUnknownDevice, id)
	}
	for _, i := range pairs {
		if i < 0 || i >= len(rec.used) {
			return fmt.Errorf("auth: device %q: pair index %d outside [0, %d)", id, i, len(rec.used))
		}
	}
	for _, i := range pairs {
		rec.used[i] = to
	}
	return nil
}

func (v *refVerifier) Consumed(id string) []int {
	var out []int
	for i, u := range v.devices[id].used {
		if u {
			out = append(out, i)
		}
	}
	return out
}

func (v *refVerifier) NumFresh(id string) (int, error) {
	rec, ok := v.devices[id]
	if !ok {
		return 0, fmt.Errorf("auth: %w %q", ErrUnknownDevice, id)
	}
	n := 0
	for i, u := range rec.used {
		if !u && rec.enr.Mask[i] {
			n++
		}
	}
	return n, nil
}

func (v *refVerifier) NewChallenge(id string, k int) (*Challenge, error) {
	rec, ok := v.devices[id]
	if !ok {
		return nil, fmt.Errorf("auth: %w %q", ErrUnknownDevice, id)
	}
	if k <= 0 {
		return nil, fmt.Errorf("auth: challenge length %d must be positive", k)
	}
	var fresh []int
	for i, u := range rec.used {
		if !u && rec.enr.Mask[i] {
			fresh = append(fresh, i)
		}
	}
	if len(fresh) < k {
		return nil, fmt.Errorf("auth: device %q has only %d fresh pairs, need %d: %w", id, len(fresh), k, ErrExhausted)
	}
	v.rng.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
	chosen := append([]int(nil), fresh[:k]...)
	for _, i := range chosen {
		rec.used[i] = true
	}
	return &Challenge{DeviceID: id, Pairs: chosen}, nil
}

func (v *refVerifier) Verify(ch *Challenge, response *bits.Stream) (bool, int, error) {
	rec, ok := v.devices[ch.DeviceID]
	if !ok {
		return false, 0, fmt.Errorf("auth: %w %q", ErrUnknownDevice, ch.DeviceID)
	}
	ref := bits.New(len(ch.Pairs))
	for _, i := range ch.Pairs {
		if i < 0 || i >= len(rec.enr.Selections) {
			return false, 0, fmt.Errorf("auth: challenge pair index %d out of range", i)
		}
		ref.Append(rec.enr.Selections[i].Bit)
	}
	if response.Len() != ref.Len() {
		return false, 0, fmt.Errorf("auth: response has %d bits, challenge expects %d", response.Len(), ref.Len())
	}
	d, err := bits.HammingDistance(ref, response)
	if err != nil {
		return false, 0, err
	}
	return d <= int(v.tolerance*float64(ref.Len())), d, nil
}

// errText renders an error for comparison, "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestVerifierMatchesReference drives the bit-packed Verifier and the
// reference model through the same seeded random operation sequence —
// Enroll, ApplyEnroll, NewChallenge, Verify, MarkUsed, UnmarkUsed and
// Unenroll, over pair counts on both sides of the 64-bit word boundary,
// with and without masked pairs — and requires identical challenges,
// distances, verdicts, fresh counts, consumed sets and errors after
// every step. Both verifiers draw challenges from identically seeded
// RNGs, so any divergence in the fresh-pair order shows up as different
// pairs.
func TestVerifierMatchesReference(t *testing.T) {
	for _, numPairs := range []int{1, 63, 64, 65, 128} {
		t.Run(fmt.Sprintf("pairs=%d", numPairs), func(t *testing.T) {
			diffVerifiers(t, numPairs, uint64(0xD1F0+numPairs))
		})
	}
}

func diffVerifiers(t *testing.T, numPairs int, seed uint64) {
	const (
		tolerance = 0.2
		ops       = 3000
	)
	ids := []string{"dev-a", "dev-b", "dev-c", "dev-d", ""}
	// Each device has a fixed silicon. Enroll always selects at threshold
	// 0; ApplyEnroll installs a pre-built enrollment, which for every
	// other device uses a threshold that masks about a third of its pairs
	// (with one pair a positive threshold would leave no bits).
	silicon := make([][]core.Pair, len(ids))
	packed := make([][]byte, len(ids))
	decoded := make([]*core.Enrollment, len(ids))
	for n := range ids {
		silicon[n] = fabPairs(seed+uint64(n), numPairs, 7)
		probe, err := core.Enroll(silicon[n], core.Case2, 0, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		threshold := 0.0
		if numPairs > 1 && n%2 == 1 {
			margins := make([]float64, numPairs)
			for i, sel := range probe.Selections {
				margins[i] = sel.Margin
			}
			slices.Sort(margins)
			threshold = margins[numPairs/3]
		}
		if decoded[n], err = core.Enroll(silicon[n], core.Case2, threshold, core.Options{}); err != nil {
			t.Fatal(err)
		}
		if packed[n], err = decoded[n].AppendBinary(nil); err != nil {
			t.Fatal(err)
		}
	}

	got, err := NewVerifier(tolerance, rngx.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	want := newRefVerifier(tolerance, rngx.New(seed))
	drive := rngx.New(seed ^ 0x5EED)
	var issued []*Challenge
	for step := 0; step < ops; step++ {
		n := drive.Intn(len(ids))
		id := ids[n]
		where := func(op string) string { return fmt.Sprintf("step %d: %s(%q)", step, op, id) }
		sameErr := func(op string, a, b error) {
			t.Helper()
			if errText(a) != errText(b) {
				t.Fatalf("%s: error %q, reference %q", where(op), errText(a), errText(b))
			}
		}
		switch op := drive.Intn(16); {
		case op == 0:
			_, errA := got.Enroll(id, silicon[n], core.Case2)
			sameErr("Enroll", errA, want.Enroll(id, silicon[n], core.Case2))
		case op == 1:
			sameErr("ApplyEnroll", got.ApplyEnroll(id, packed[n]), want.ApplyEnroll(id, decoded[n]))
		case op == 2:
			if a, b := got.Unenroll(id), want.Unenroll(id); a != b {
				t.Fatalf("%s: %v, reference %v", where("Unenroll"), a, b)
			}
		case op <= 6:
			k := 1 + drive.Intn(1+numPairs/4)
			if drive.Intn(10) == 0 {
				k = drive.Intn(3) - 1 // zero or negative lengths
			}
			chA, errA := got.NewChallenge(id, k)
			chB, errB := want.NewChallenge(id, k)
			sameErr("NewChallenge", errA, errB)
			if errA == nil {
				if !slices.Equal(chA.Pairs, chB.Pairs) || chA.DeviceID != chB.DeviceID {
					t.Fatalf("%s: pairs %v, reference %v", where("NewChallenge"), chA.Pairs, chB.Pairs)
				}
				issued = append(issued, chA)
			}
		case op <= 10:
			var ch *Challenge
			if len(issued) > 0 && drive.Intn(8) != 0 {
				ch = issued[drive.Intn(len(issued))]
			} else {
				ch = &Challenge{DeviceID: id, Pairs: randomPairs(drive, numPairs)}
			}
			resp := bits.New(len(ch.Pairs))
			for range len(ch.Pairs) + drive.Intn(3)/2 { // now and then one bit too many
				resp.Append(drive.Bool())
			}
			okA, dA, errA := got.Verify(ch, resp)
			okB, dB, errB := want.Verify(ch, resp)
			sameErr("Verify", errA, errB)
			if okA != okB || dA != dB {
				t.Fatalf("%s: ok=%v d=%d, reference ok=%v d=%d", where("Verify"), okA, dA, okB, dB)
			}
		case op <= 12:
			pairs := randomPairs(drive, numPairs)
			sameErr("MarkUsed", got.MarkUsed(id, pairs), want.setUsed(id, pairs, true))
		default:
			pairs := randomPairs(drive, numPairs)
			sameErr("UnmarkUsed", got.UnmarkUsed(id, pairs), want.setUsed(id, pairs, false))
		}
		for _, id := range ids {
			fA, errA := got.NumFresh(id)
			fB, errB := want.NumFresh(id)
			if fA != fB || errText(errA) != errText(errB) {
				t.Fatalf("step %d: NumFresh(%q) = %d, %v; reference %d, %v", step, id, fA, errA, fB, errB)
			}
			if errA != nil {
				continue
			}
			rec, err := got.Device(id)
			if err != nil {
				t.Fatal(err)
			}
			if a, b := rec.Consumed(), want.Consumed(id); !slices.Equal(a, b) {
				t.Fatalf("step %d: Consumed(%q) = %v, reference %v", step, id, a, b)
			}
			if a, b := rec.NumBits(), want.devices[id].enr.NumBits(); a != b || rec.NumPairs() != numPairs {
				t.Fatalf("step %d: device %q has %d pairs / %d bits, reference %d / %d", step, id, rec.NumPairs(), a, numPairs, b)
			}
		}
	}
	if len(issued) == 0 {
		t.Fatal("the sequence issued no challenge")
	}
}

// randomPairs draws a few pair indices, mostly in range, sometimes one
// past either end so the range checks are compared too.
func randomPairs(r *rngx.RNG, numPairs int) []int {
	out := make([]int, r.Intn(4))
	for i := range out {
		out[i] = r.Intn(numPairs+2) - 1
	}
	return out
}
