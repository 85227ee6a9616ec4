package silicon

import (
	"math"
	"testing"

	"ropuf/internal/rngx"
)

// refEnvFactor is the direct alpha-power-law environment factor the factor
// kernel replaces: f(env)/f(nominal) with every term, the mobility power
// included, evaluated per device (four math.Pow calls). It is the test
// oracle the kernel must match bit for bit.
func refEnvFactor(p Params, vth float64, env Env) float64 {
	f := func(v, tC float64) float64 {
		vthT := vth + p.VthTempCoeff*(tC-p.TNom)
		overdrive := v - vthT
		if overdrive < 0.02 {
			overdrive = 0.02
		}
		tK := tC + 273.15
		t0K := p.TNom + 273.15
		mob := pow(tK/t0K, p.MobilityExp)
		return v / pow(overdrive, p.Alpha) * mob
	}
	return f(env.V, env.T) / f(p.VNom, p.TNom)
}

// sameBits is bit equality with every NaN equal to every other NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// kernelTestEnvs is the VT dataset's nine conditions (the voltage sweep at
// 25 °C, the temperature sweep at 1.20 V, built the way dataset.Condition
// converts them) plus off-grid environments: near threshold, far outside
// the sweep, one ulp off nominal, and the die's own nominal.
func kernelTestEnvs(p Params) []Env {
	var envs []Env
	for _, mv := range []int{980, 1080, 1200, 1320, 1440} {
		envs = append(envs, Env{V: float64(mv) / 1000, T: float64(250) / 10})
	}
	for _, dc := range []int{350, 450, 550, 650} {
		envs = append(envs, Env{V: float64(1200) / 1000, T: float64(dc) / 10})
	}
	return append(envs,
		Env{V: 0.46, T: 25},
		Env{V: 0.2, T: -40},
		Env{V: 3.3, T: 125},
		Env{V: 1.2, T: -273.15},
		Env{V: math.Nextafter(p.VNom, 2), T: p.TNom},
		Env{V: p.VNom, T: math.Nextafter(p.TNom, 100)},
		Env{V: p.VNom, T: p.TNom},
	)
}

// TestFactorKernelMatchesReference is the differential battery: every
// accessor built on the factor kernel — EnvFactors, DelayPS, DelayAtPS,
// DelaysIntoPS — must reproduce the direct four-Pow formula bit for bit on
// random dies, the VT conditions, off-grid environments, and valid but
// degenerate Params (where the nominal shortcut's guard must refuse and
// the division's NaN or infinity must come through unchanged).
func TestFactorKernelMatchesReference(t *testing.T) {
	type paramCase struct {
		name   string
		mutate func(*Params)
	}
	cases := []paramCase{
		{"default", func(*Params) {}},
		{"vt-corpus", func(p *Params) {
			p.NominalDelayPS, p.SystematicAmp, p.RandomSigma, p.VthSigma = 5208, 0.035, 0.010, 0.008
		}},
		// pow(0.02, Alpha) underflows to 0 at the clamp: f(nominal) is +Inf
		// and the nominal factor is Inf/Inf = NaN.
		{"alpha-200-at-clamp", func(p *Params) { p.Alpha, p.VthNom = 200, p.VNom-0.001 }},
		{"alpha-250", func(p *Params) { p.Alpha = 250 }},
		{"vth-near-vnom", func(p *Params) { p.VthNom, p.VthSigma = p.VNom-1e-4, 0.05 }},
		{"large-vth-tempco", func(p *Params) { p.VthTempCoeff = -0.5 }},
		{"huge-vth-tempco", func(p *Params) { p.VthTempCoeff = 1e300 }},
		{"mobility-exp-0", func(p *Params) { p.MobilityExp = 0 }},
		{"small-vnom", func(p *Params) { p.VNom, p.VthNom = 1e-5, -0.5 }},
	}
	for ci, pc := range cases {
		t.Run(pc.name, func(t *testing.T) {
			p := DefaultParams()
			pc.mutate(&p)
			for seed := uint64(0); seed < 3; seed++ {
				die, err := NewDie(p, 8, 6, rngx.New(uint64(ci)<<8|seed))
				if err != nil {
					t.Fatal(err)
				}
				if seed == 2 {
					// Devices outside any sane range: the per-device guard
					// must refuse these and the division must decide.
					die.Devices[0].Vth = -5000
					die.Devices[1].Vth = math.Inf(-1)
					die.Devices[2].Vth = math.Inf(1)
					die.Devices[3].Vth = math.NaN()
					die.Devices[4].Vth = p.VNom
				}
				for _, env := range kernelTestEnvs(p) {
					checkKernelAgainstReference(t, die, env)
				}
			}
		})
	}
}

func checkKernelAgainstReference(t *testing.T, die *Die, env Env) {
	t.Helper()
	batch := make([]float64, die.NumDevices())
	if _, err := die.DelaysIntoPS(batch, env); err != nil {
		t.Fatal(err)
	}
	factors := die.EnvFactors(env)
	for i, dev := range die.Devices {
		ref := refEnvFactor(die.Params, dev.Vth, env)
		want := dev.Base * ref
		got := map[string]float64{
			"EnvFactors":        factors[i],
			"DelaysIntoPS":      batch[i],
			"DelayPS":           die.DelayPS(i, env),
			"DelayAtPS":         die.DelayAtPS(dev, env),
			"DelayAtUncachedPS": die.DelayAtUncachedPS(dev, env),
		}
		for name, g := range got {
			w := want
			if name == "EnvFactors" {
				w = ref
			}
			if !sameBits(g, w) {
				t.Fatalf("env %+v device %d (Vth %g): %s %x (%g), reference %x (%g)",
					env, i, dev.Vth, name, math.Float64bits(g), g, math.Float64bits(w), w)
			}
		}
	}
}

// TestNominalShortcutGuard pins when the exact-1 nominal path is taken:
// for sane Params at exactly nominal, and never for an environment one ulp
// away, for unbounded Alpha, or for a device whose overdrive is out of the
// guard's range — those divide, and for the Alpha-200 clamp case the
// division gives NaN, which the shortcut would have turned into 1.
func TestNominalShortcutGuard(t *testing.T) {
	p := DefaultParams()
	nom := Env{V: p.VNom, T: p.TNom}
	for _, tc := range []struct {
		name string
		p    Params
		env  Env
		want bool
	}{
		{"default at nominal", p, nom, true},
		{"one ulp above VNom", p, Env{V: math.Nextafter(p.VNom, 2), T: p.TNom}, false},
		{"sweep point", p, Env{V: 1.08, T: 25}, false},
		{"alpha 200", func() Params { q := p; q.Alpha = 200; return q }(), nom, false},
		{"NaN alpha", func() Params { q := p; q.Alpha = math.NaN(); return q }(), nom, false},
		{"tiny VNom", func() Params { q := p; q.VNom = 1e-4; return q }(), Env{V: 1e-4, T: p.TNom}, false},
		{"T0 at absolute zero", func() Params { q := p; q.TNom = -273.15; return q }(), Env{V: p.VNom, T: -273.15}, false},
	} {
		if got := tc.p.factorKernel(tc.env).nominal; got != tc.want {
			t.Errorf("%s: nominal shortcut %v, want %v", tc.name, got, tc.want)
		}
	}

	// The die-wide guard holds but one device's overdrive is out of range:
	// that device must take the division (whose result is 1 here too).
	k := p.factorKernel(nom)
	if got := k.factor(-5000); got != 1 || refEnvFactor(p, -5000, nom) != 1 {
		t.Fatalf("out-of-range overdrive at nominal: kernel %g, reference %g", got, refEnvFactor(p, -5000, nom))
	}

	// Alpha 200 with the overdrive at its clamp: the reference is NaN.
	q := p
	q.Alpha, q.VthNom = 200, q.VNom-0.001
	if ref := refEnvFactor(q, q.VthNom, nom); !math.IsNaN(ref) {
		t.Fatalf("reference factor %g, want NaN (pow(0.02, 200) underflows)", ref)
	}
	if got := q.factorKernel(nom); !math.IsNaN(got.factor(q.VthNom)) {
		t.Fatal("nominal shortcut turned the NaN factor into a number")
	}
}
