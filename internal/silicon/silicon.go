// Package silicon models the fabrication-time process variation and the
// environmental (supply voltage / temperature) behaviour of CMOS delay
// elements. It is the substrate that stands in for the paper's FPGA boards:
// every RO frequency and every inverter delay in this repository ultimately
// comes from a silicon.Die.
//
// The model captures the three effects the paper's experiments depend on:
//
//  1. Systematic process variation — a smooth 2-D surface across the die
//     (random per-die polynomial + gradient). This is what makes raw PUF
//     bits fail the NIST tests until the regression distiller removes it.
//  2. Random (local) process variation — i.i.d. Gaussian perturbations of
//     each device's base delay and threshold voltage. This is the entropy
//     source that makes PUF responses unique per chip.
//  3. Environment dependence — the alpha-power-law delay model
//     (Sakurai–Newton): delay ∝ V / (V − Vth)^α, with mobility degrading as
//     (T/T₀)^m and Vth decreasing with temperature. Because each device has
//     its own Vth, devices respond *differently* to V/T changes, which is
//     exactly the mechanism that flips marginal PUF bits.
package silicon

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"ropuf/internal/rngx"
)

// Env is an operating environment: supply voltage in volts and junction
// temperature in degrees Celsius.
type Env struct {
	V float64 // supply voltage [V]
	T float64 // temperature [°C]
}

// Nominal is the enrollment environment used throughout the paper:
// 1.20 V and 25 °C.
var Nominal = Env{V: 1.20, T: 25}

// Params configures the process and environment model. Zero value is not
// usable; start from DefaultParams.
type Params struct {
	// NominalDelayPS is the mean delay of one device (one inverter, or one
	// MUX path) at the nominal environment, in picoseconds.
	NominalDelayPS float64

	// SystematicAmp is the peak-to-peak scale of the smooth inter-die /
	// intra-die systematic variation surface, as a fraction of nominal
	// delay. FPGA measurements put systematic variation at several percent.
	SystematicAmp float64

	// RandomSigma is the standard deviation of the per-device random delay
	// variation, as a fraction of nominal delay.
	RandomSigma float64

	// VNom and TNom define the environment at which Base delays are quoted.
	VNom float64 // [V]
	TNom float64 // [°C]

	// Alpha is the velocity-saturation exponent of the alpha-power-law
	// delay model. ~1.3 for deep-submicron CMOS.
	Alpha float64

	// VthNom is the nominal threshold voltage [V]; VthSigma the per-device
	// random Vth spread [V].
	VthNom   float64
	VthSigma float64

	// VthTempCoeff is dVth/dT [V/°C] (negative: Vth drops as T rises).
	VthTempCoeff float64

	// MobilityExp is the exponent m of the (T_K/T0_K)^m mobility
	// degradation term. Positive m means delay grows with temperature
	// (mobility μ ∝ T^−m).
	MobilityExp float64
}

// DefaultParams returns parameters loosely calibrated to a 90 nm FPGA
// process (Spartan-3E class): ~200 ps per LUT-implemented inverter stage,
// a few percent systematic variation, ~1 % random variation.
func DefaultParams() Params {
	return Params{
		NominalDelayPS: 200,
		SystematicAmp:  0.04,
		RandomSigma:    0.012,
		VNom:           1.20,
		TNom:           25,
		Alpha:          1.3,
		VthNom:         0.45,
		VthSigma:       0.012,
		VthTempCoeff:   -0.0012,
		MobilityExp:    1.5,
	}
}

// Validate reports whether the parameters are physically meaningful.
func (p Params) Validate() error {
	switch {
	case p.NominalDelayPS <= 0:
		return fmt.Errorf("silicon: NominalDelayPS must be positive, got %g", p.NominalDelayPS)
	case p.RandomSigma < 0 || p.SystematicAmp < 0 || p.VthSigma < 0:
		return fmt.Errorf("silicon: variation magnitudes must be non-negative")
	case p.VNom <= p.VthNom:
		return fmt.Errorf("silicon: nominal supply %g V must exceed nominal Vth %g V", p.VNom, p.VthNom)
	case p.Alpha <= 0:
		return fmt.Errorf("silicon: Alpha must be positive, got %g", p.Alpha)
	}
	return nil
}

// Device is one delay element (an inverter or one MUX path) on a die.
type Device struct {
	// X, Y are the device's grid coordinates, used by the systematic
	// surface and by the distiller.
	X, Y int

	// Base is the device delay at the nominal environment, in picoseconds,
	// including both systematic and random process variation.
	Base float64

	// Vth is the device's threshold voltage at the nominal temperature [V].
	Vth float64
}

// surface holds one die's systematic-variation polynomial:
// sys(u, v) = c0 + c1·u + c2·v + c3·u² + c4·v² + c5·u·v
// with u, v ∈ [−1, 1] the normalized die coordinates.
type surface struct {
	c [6]float64
}

func (s surface) at(u, v float64) float64 {
	return s.c[0] + s.c[1]*u + s.c[2]*v + s.c[3]*u*u + s.c[4]*v*v + s.c[5]*u*v
}

// envTable is an immutable per-environment snapshot of every device's
// environment factor (delay(env)/delay(nominal)). One table costs one
// factor-kernel pass over the die to build; once built, any number of
// delay queries under that environment are a multiply each.
type envTable struct {
	env Env
	// vth pins the threshold voltages the factors were computed from, so
	// lookups can detect a stale entry if a caller mutated Devices.
	vth     []float64
	factors []float64
}

// maxEnvTables bounds the per-die table store. A V/T sweep visits a few
// dozen environments; past the cap the store resets generationally (sweeps
// revisit environments in runs, so the freshly cached entries are the ones
// about to be reused).
const maxEnvTables = 64

// Die is a fabricated chip: a W×H grid of devices sharing one systematic
// variation surface. A Die caches per-environment factor tables (see
// EnvFactors); the cache is safe for concurrent use, so rings sharing a die
// may be measured from multiple goroutines. Devices is exported for
// inspection; mutating Base is always safe (factors do not depend on it),
// while mutating Vth is detected per lookup and falls back to a direct
// recomputation.
type Die struct {
	Params  Params
	W, H    int
	Devices []Device
	surf    surface

	// current is the most recently used environment table; the hot paths
	// check only this pointer. tables retains every built table (bounded by
	// maxEnvTables) so alternating environments promote instead of rebuild.
	current atomic.Pointer[envTable]
	mu      sync.Mutex
	tables  map[Env]*envTable
}

// NewDie fabricates a die with w×h devices using the supplied process
// parameters and randomness source. Fabrication is deterministic given the
// RNG state. It is Refabricate on a die that has no devices yet.
func NewDie(p Params, w, h int, rng *rngx.RNG) (*Die, error) {
	d := &Die{Params: p, W: w, H: h}
	if err := d.Refabricate(rng); err != nil {
		return nil, err
	}
	return d, nil
}

// Refabricate fabricates a new die in place: it redraws the systematic
// surface and every device from rng under d.Params at d.W×d.H, exactly as
// NewDie(d.Params, d.W, d.H, rng) would, and drops the env-table cache. A
// Die with only Params, W and H set is ready for it. Devices is refilled in
// place when its length is W×H; otherwise (a die built by hand, or one
// whose W or H changed) it is reallocated at W×H. Invalid Params or
// dimensions are rejected before rng is drawn from, leaving d unchanged.
// Refabricate is not safe for concurrent use with any other method: it is
// for one owner recycling one die across boards.
func (d *Die) Refabricate(rng *rngx.RNG) error {
	p, w, h := d.Params, d.W, d.H
	if err := p.Validate(); err != nil {
		return err
	}
	if w <= 0 || h <= 0 {
		return fmt.Errorf("silicon: die dimensions must be positive, got %dx%d", w, h)
	}
	if len(d.Devices) != w*h {
		d.Devices = make([]Device, w*h)
	}
	d.current.Store(nil)
	d.mu.Lock()
	d.tables = nil
	d.mu.Unlock()
	// Per-die systematic surface. The constant term models die-to-die mean
	// shift; the polynomial terms model intra-die spatial gradients.
	for i := range d.surf.c {
		d.surf.c[i] = rng.NormMeanStd(0, p.SystematicAmp/2)
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			u := normCoord(x, w)
			v := normCoord(y, h)
			sys := d.surf.at(u, v)
			rnd := rng.NormMeanStd(0, p.RandomSigma)
			base := p.NominalDelayPS * (1 + sys + rnd)
			if base <= 0 {
				// Astronomically unlikely with sane params; clamp rather
				// than fabricate acausal devices.
				base = p.NominalDelayPS * 0.01
			}
			vth := p.VthNom + rng.NormMeanStd(0, p.VthSigma)
			d.Devices[y*w+x] = Device{X: x, Y: y, Base: base, Vth: vth}
		}
	}
	return nil
}

// normCoord maps grid index i of n to [−1, 1].
func normCoord(i, n int) float64 {
	if n == 1 {
		return 0
	}
	return 2*float64(i)/float64(n-1) - 1
}

// NumDevices returns the number of devices on the die.
func (d *Die) NumDevices() int { return len(d.Devices) }

// Device returns device i (row-major order).
func (d *Die) Device(i int) *Device { return &d.Devices[i] }

// Bounds of the nominal shortcut's guard (see factorKernel). With the
// clamped overdrive in [0.02, nominalMaxOverdrive] and |Alpha| ≤
// nominalMaxAlpha, overdrive^Alpha lies in [1e-192, 1e192]; with VNom in
// [nominalMinV, nominalMaxV] the nominal delay term V/overdrive^Alpha then
// lies in [1e-195, 1e195], finite and non-zero.
const (
	nominalMaxAlpha     = 64
	nominalMaxOverdrive = 1e3 // [V]
	nominalMinV         = 1e-3
	nominalMaxV         = 1e3
)

// factorKernel evaluates a device's environment factor
// delay(env)/delay(nominal) under the alpha-power law with
// temperature-dependent Vth and mobility:
//
//	f(V, T) = V / overdrive^Alpha · (T_K/T0_K)^MobilityExp
//	overdrive = max(V − (Vth + VthTempCoeff·(T − TNom)), 0.02)
//
// Every term that does not depend on the device is computed once per
// environment, so an off-nominal factor costs two math.Pow calls (one
// overdrive power each for env and nominal). The operations and their
// order are those of the direct formula, so results are bit-identical to
// it.
//
// At exactly the nominal environment the numerator and denominator are the
// same float computation, so the factor is exactly 1 whenever that value
// is finite and non-zero, and the nominal delay is Base with no math.Pow
// call at all. The kernel takes that shortcut only when a cheap guard
// proves it (mobility term exactly 1, bounded Alpha, VNom and per-device
// overdrive); otherwise it divides, so degenerate Params keep their
// direct-formula results, NaN included.
type factorKernel struct {
	v, vNom       float64 // supply [V] at env and at nominal
	dVth, dVthNom float64 // VthTempCoeff·(T − TNom) at env and at nominal
	mob, mobNom   float64 // (T_K/T0_K)^MobilityExp at env and at nominal
	alpha         float64
	nominal       bool // env is exactly nominal and the die-wide guard holds
}

func (p *Params) factorKernel(env Env) factorKernel {
	t0K := p.TNom + 273.15
	k := factorKernel{
		v:       env.V,
		vNom:    p.VNom,
		dVth:    p.VthTempCoeff * (env.T - p.TNom),
		dVthNom: p.VthTempCoeff * (p.TNom - p.TNom),
		mob:     pow((env.T+273.15)/t0K, p.MobilityExp), // μ ∝ T^−m ⇒ delay ∝ T^m
		mobNom:  pow(t0K/t0K, p.MobilityExp),
		alpha:   p.Alpha,
	}
	k.nominal = env == Env{V: p.VNom, T: p.TNom} && k.mobNom == 1 &&
		math.Abs(p.Alpha) <= nominalMaxAlpha && p.VNom >= nominalMinV && p.VNom <= nominalMaxV
	return k
}

// factor returns the environment factor of a device with threshold
// voltage vth. It is small enough to inline into the whole-die loops, so
// the nominal shortcut costs a compare per device. (The unclamped
// overdrive is within the bound exactly when the clamped one is: the
// clamp value 0.02 is, and NaN is in neither.)
func (k *factorKernel) factor(vth float64) float64 {
	if k.nominal && k.vNom-(vth+k.dVthNom) <= nominalMaxOverdrive {
		return 1
	}
	return k.ratio(vth)
}

// ratio is f(env)/f(nominal) evaluated in full: two math.Pow calls.
func (k *factorKernel) ratio(vth float64) float64 {
	return k.v / pow(overdrive(k.v, vth+k.dVth), k.alpha) * k.mob /
		(k.vNom / pow(overdrive(k.vNom, vth+k.dVthNom), k.alpha) * k.mobNom)
}

// overdrive returns v − vthT clamped from below: near or below threshold
// the alpha-power law diverges, so extreme sweep points stay finite (delay
// becomes very large, which is the physically right direction).
func overdrive(v, vthT float64) float64 {
	od := v - vthT
	if od < 0.02 {
		return 0.02
	}
	return od
}

// pow is math.Pow specialized to positive bases (documents intent; the
// callers guarantee positivity).
func pow(base, exp float64) float64 {
	if base <= 0 {
		return 0
	}
	// Defer to the standard library for accuracy.
	return mathPow(base, exp)
}

// envTableFor returns the (possibly freshly built) factor table for env
// and promotes it to the current slot.
func (d *Die) envTableFor(env Env) *envTable {
	if t := d.current.Load(); t != nil && t.env == env {
		return t
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if t, ok := d.tables[env]; ok {
		d.current.Store(t)
		return t
	}
	t := &envTable{
		env:     env,
		vth:     make([]float64, len(d.Devices)),
		factors: make([]float64, len(d.Devices)),
	}
	k := d.Params.factorKernel(env)
	for i := range d.Devices {
		vth := d.Devices[i].Vth
		t.vth[i] = vth
		t.factors[i] = k.factor(vth)
	}
	if d.tables == nil || len(d.tables) >= maxEnvTables {
		d.tables = make(map[Env]*envTable, 8)
	}
	d.tables[env] = t
	d.current.Store(t)
	return t
}

// EnvFactors returns the per-device environment-factor table for env
// (factor i is delay(env)/delay(nominal) for device i), building and
// caching it on first use. The returned slice is shared and must not be
// mutated. Paths that re-read one environment many times (the circuit
// stage tabulations) use it; a single whole-die read wants DelaysIntoPS.
func (d *Die) EnvFactors(env Env) []float64 {
	return d.envTableFor(env).factors
}

// DelaysIntoPS fills dst with every device's delay under env, in
// picoseconds, and returns dst. It is the board-major bulk accessor behind
// measure.BoardMeter. It is table-free: one factor kernel per call,
// evaluated straight from each device's live Base and Vth into dst, so it
// neither builds nor consults the env-table cache (a board read once per
// environment would only pay to build a table it never re-reads) and
// performs no allocations. At nominal it costs no math.Pow call; off
// nominal, two per device. Results are bit-identical to per-device
// DelayPS calls. len(dst) must equal NumDevices.
func (d *Die) DelaysIntoPS(dst []float64, env Env) ([]float64, error) {
	if len(dst) != len(d.Devices) {
		return nil, fmt.Errorf("silicon: DelaysIntoPS dst has %d entries, die has %d devices", len(dst), len(d.Devices))
	}
	k := d.Params.factorKernel(env)
	for i := range d.Devices {
		dev := &d.Devices[i]
		dst[i] = dev.Base * k.factor(dev.Vth)
	}
	return dst, nil
}

// DelayPS returns the delay of device i under the given environment, in
// picoseconds. It panics if i is out of range. When the die's current
// cached environment matches env the lookup is a multiply; otherwise the
// factor is recomputed directly (a point query does not build a table —
// call EnvFactors to warm one).
func (d *Die) DelayPS(i int, env Env) float64 {
	dev := &d.Devices[i]
	if t := d.current.Load(); t != nil && t.env == env && t.vth[i] == dev.Vth {
		return dev.Base * t.factors[i]
	}
	return d.DelayAtUncachedPS(*dev, env)
}

// DelayAtPS is DelayPS for an explicit device value (used by circuit stages
// that hold Device copies rather than indices). The cached factor is looked
// up by the device's grid coordinates; the stored Vth must match exactly —
// and the factor depends only on (Vth, env) — so a hit is bit-identical to
// the direct computation and any mismatch (foreign or mutated device) falls
// back to computing from scratch.
func (d *Die) DelayAtPS(dev Device, env Env) float64 {
	if t := d.current.Load(); t != nil && t.env == env {
		if i := dev.Y*d.W + dev.X; i >= 0 && i < len(t.vth) && t.vth[i] == dev.Vth {
			return dev.Base * t.factors[i]
		}
	}
	return d.DelayAtUncachedPS(dev, env)
}

// DelayAtUncachedPS is DelayAtPS with the environment-factor cache
// bypassed: it always evaluates the factor kernel. It is the reference
// path for the *Naive measurement implementations and for equivalence
// tests; results are bit-identical to the cached accessors.
func (d *Die) DelayAtUncachedPS(dev Device, env Env) float64 {
	k := d.Params.factorKernel(env)
	return dev.Base * k.factor(dev.Vth)
}

// SystematicAt returns the systematic variation fraction at grid position
// (x, y); exported for tests and for validating the distiller.
func (d *Die) SystematicAt(x, y int) float64 {
	return d.surf.at(normCoord(x, d.W), normCoord(y, d.H))
}
