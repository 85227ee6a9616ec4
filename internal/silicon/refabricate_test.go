package silicon

import (
	"math"
	"testing"

	"ropuf/internal/rngx"
)

// sameDie fails unless got and want carry bit-identical devices and the
// same systematic surface.
func sameDie(t *testing.T, label string, got, want *Die) {
	t.Helper()
	if got.W != want.W || got.H != want.H || len(got.Devices) != len(want.Devices) {
		t.Fatalf("%s: %dx%d with %d devices, want %dx%d with %d",
			label, got.W, got.H, len(got.Devices), want.W, want.H, len(want.Devices))
	}
	for i := range want.Devices {
		g, w := got.Devices[i], want.Devices[i]
		if g.X != w.X || g.Y != w.Y ||
			math.Float64bits(g.Base) != math.Float64bits(w.Base) ||
			math.Float64bits(g.Vth) != math.Float64bits(w.Vth) {
			t.Fatalf("%s: device %d is %+v, want %+v", label, i, g, w)
		}
	}
	for y := 0; y < want.H; y++ {
		for x := 0; x < want.W; x++ {
			if math.Float64bits(got.SystematicAt(x, y)) != math.Float64bits(want.SystematicAt(x, y)) {
				t.Fatalf("%s: systematic surface differs at (%d,%d)", label, x, y)
			}
		}
	}
}

func TestRefabricateMatchesNewDie(t *testing.T) {
	p := DefaultParams()
	d, err := NewDie(p, 8, 6, rngx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	backing := &d.Devices[0]
	for seed := uint64(2); seed < 6; seed++ {
		rng := rngx.New(seed)
		if err := d.Refabricate(rng); err != nil {
			t.Fatal(err)
		}
		ref := rngx.New(seed)
		want, err := NewDie(p, 8, 6, ref)
		if err != nil {
			t.Fatal(err)
		}
		sameDie(t, "refabricated", d, want)
		if rng.Uint64() != ref.Uint64() {
			t.Fatalf("seed %d: Refabricate and NewDie drew different amounts from the RNG", seed)
		}
		if &d.Devices[0] != backing {
			t.Fatalf("seed %d: Refabricate reallocated a right-size Devices slice", seed)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := d.Refabricate(rngx.New(9)); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 { // the RNG itself may escape
		t.Fatalf("Refabricate allocates %.0f times per call", allocs)
	}
}

// TestRefabricateDropsEnvTables caches tables on the old die (and leaves
// one current), then checks every cached accessor of the refabricated die
// against a freshly fabricated one at exactly those environments.
func TestRefabricateDropsEnvTables(t *testing.T) {
	p := DefaultParams()
	envs := []Env{{V: 0.98, T: 25}, {V: 1.2, T: 65}, Nominal}
	d, err := NewDie(p, 6, 6, rngx.New(11))
	if err != nil {
		t.Fatal(err)
	}
	for _, env := range envs {
		d.EnvFactors(env)
	}
	if err := d.Refabricate(rngx.New(12)); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewDie(p, 6, 6, rngx.New(12))
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		for _, env := range envs {
			for i, dev := range fresh.Devices {
				if got, want := d.DelayPS(i, env), fresh.DelayPS(i, env); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: DelayPS(%d, %+v) = %x, fresh die %x", stage, i, env, got, want)
				}
				if got, want := d.DelayAtPS(dev, env), fresh.DelayAtPS(dev, env); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: DelayAtPS(%d, %+v) = %x, fresh die %x", stage, i, env, got, want)
				}
			}
		}
	}
	check("before any table is rebuilt")
	for _, env := range envs {
		got, want := d.EnvFactors(env), fresh.EnvFactors(env)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("EnvFactors(%+v)[%d] = %x, fresh die %x: stale table survived Refabricate", env, i, got[i], want[i])
			}
		}
	}
	check("after the tables are rebuilt")
}

// TestRefabricateResizesOrRejects pins the documented size policy: a
// Devices slice of the wrong length is reallocated at W×H, while invalid
// dimensions or Params are rejected without touching the die or the RNG.
func TestRefabricateResizesOrRejects(t *testing.T) {
	p := DefaultParams()
	hand := &Die{Params: p, W: 4, H: 3, Devices: make([]Device, 5)}
	if err := hand.Refabricate(rngx.New(21)); err != nil {
		t.Fatal(err)
	}
	want, err := NewDie(p, 4, 3, rngx.New(21))
	if err != nil {
		t.Fatal(err)
	}
	sameDie(t, "wrong-length Devices", hand, want)

	hand.W = 7
	if err := hand.Refabricate(rngx.New(22)); err != nil {
		t.Fatal(err)
	}
	if want, err = NewDie(p, 7, 3, rngx.New(22)); err != nil {
		t.Fatal(err)
	}
	sameDie(t, "widened die", hand, want)

	bad := []func(d *Die){
		func(d *Die) { d.W = 0 },
		func(d *Die) { d.H = -2 },
		func(d *Die) { d.Params.Alpha = 0 },
	}
	for i, mutate := range bad {
		d, err := NewDie(p, 4, 4, rngx.New(23))
		if err != nil {
			t.Fatal(err)
		}
		before := append([]Device(nil), d.Devices...)
		mutate(d)
		rng := rngx.New(24)
		if err := d.Refabricate(rng); err == nil {
			t.Fatalf("case %d: Refabricate accepted an invalid die", i)
		}
		for j := range before {
			if d.Devices[j] != before[j] {
				t.Fatalf("case %d: rejected Refabricate changed device %d", i, j)
			}
		}
		if rng.Uint64() != rngx.New(24).Uint64() {
			t.Fatalf("case %d: rejected Refabricate drew from the RNG", i)
		}
	}
}
