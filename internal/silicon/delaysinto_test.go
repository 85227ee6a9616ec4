package silicon

import (
	"testing"

	"ropuf/internal/rngx"
)

func delaysTestDie(t testing.TB) *Die {
	t.Helper()
	die, err := NewDie(DefaultParams(), 6, 6, rngx.New(0xD1E))
	if err != nil {
		t.Fatal(err)
	}
	return die
}

func TestDelaysIntoPSMatchesDelayPS(t *testing.T) {
	die := delaysTestDie(t)
	for _, env := range []Env{Nominal, {V: 0.98, T: 25}, {V: 1.2, T: 65}} {
		dst := make([]float64, die.NumDevices())
		if _, err := die.DelaysIntoPS(dst, env); err != nil {
			t.Fatal(err)
		}
		for i := range dst {
			if want := die.DelayPS(i, env); dst[i] != want {
				t.Fatalf("env %+v device %d: batch %x != scalar %x", env, i, dst[i], want)
			}
		}
	}
}

func TestDelaysIntoPSValidatesLength(t *testing.T) {
	die := delaysTestDie(t)
	if _, err := die.DelaysIntoPS(make([]float64, die.NumDevices()-1), Nominal); err == nil {
		t.Fatal("accepted short destination")
	}
	if _, err := die.DelaysIntoPS(make([]float64, die.NumDevices()+1), Nominal); err == nil {
		t.Fatal("accepted long destination")
	}
}

func TestDelaysIntoPSAllocFree(t *testing.T) {
	die := delaysTestDie(t)
	dst := make([]float64, die.NumDevices())
	for _, env := range []Env{Nominal, {V: 1.08, T: 45}} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := die.DelaysIntoPS(dst, env); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("env %+v: DelaysIntoPS allocates %.1f times, want 0", env, allocs)
		}
	}
	if die.current.Load() != nil {
		t.Fatal("DelaysIntoPS built an env table")
	}
}

// TestDelaysIntoPSStaleVthFallsBack mutates one device between two reads of
// the same environment: DelaysIntoPS is table-free, so the second read must
// see the live Vth (bit-identical to a fresh direct computation) and leave
// every other device unchanged — even when a cached table for that
// environment, built before the mutation, is current.
func TestDelaysIntoPSStaleVthFallsBack(t *testing.T) {
	die := delaysTestDie(t)
	env := Env{V: 0.98, T: 25}
	die.EnvFactors(env) // a table pinned before the mutation
	before := make([]float64, die.NumDevices())
	if _, err := die.DelaysIntoPS(before, env); err != nil {
		t.Fatal(err)
	}
	const victim = 7
	die.Device(victim).Vth += 0.015
	after := make([]float64, die.NumDevices())
	if _, err := die.DelaysIntoPS(after, env); err != nil {
		t.Fatal(err)
	}
	if after[victim] == before[victim] {
		t.Fatal("stale delay served for the mutated device")
	}
	if want := die.DelayAtUncachedPS(*die.Device(victim), env); after[victim] != want {
		t.Fatalf("mutated device batch delay %x != fresh %x", after[victim], want)
	}
	for i := range after {
		if i != victim && after[i] != before[i] {
			t.Fatalf("unmutated device %d changed", i)
		}
	}
}
