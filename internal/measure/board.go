package measure

import (
	"fmt"

	"ropuf/internal/rngx"
	"ropuf/internal/silicon"
)

// BoardMeter measures a whole die's ring oscillators in one shot: every
// device of the die is treated as one RO whose Base delay is a half-period
// (the VT-dataset convention, see dataset.VTConfig), and a frequency
// counter with Gaussian error reads all of them under one environment.
//
// The point of the batch API is the cost model. One MeasureInto call
//
//   - evaluates the die's delays with one table-free factor-kernel pass
//     (silicon.Die.DelaysIntoPS): no math.Pow call at the nominal
//     environment, two per device off nominal, and no env table built for
//     a die that is read once per environment;
//   - draws the whole board's measurement noise with one rngx.NormFill —
//     one batched call per board instead of one Norm call per device;
//   - computes the delays in place in the caller-provided flat board-major
//     dst and reuses its own noise buffer, so the warm path performs zero
//     allocations (pinned by TestBoardMeterAllocs).
//
// Results are bit-identical to the per-device loop it replaces
// (freq_i = 1e6/(2·DelayPS(i,env)) + NormMeanStd(0, NoiseMHz), devices in
// index order): NormFill is stream-identical to sequential NormMeanStd
// calls and DelaysIntoPS is bit-identical to DelayPS.
//
// A BoardMeter owns a scratch buffer and is not safe for concurrent use;
// give each goroutine its own (they may share one die: DelaysIntoPS only
// reads it).
type BoardMeter struct {
	// NoiseMHz is the standard deviation of one frequency reading's error.
	NoiseMHz float64

	noise []float64
}

// NewBoardMeter returns a BoardMeter with the given per-reading frequency
// noise (in MHz).
func NewBoardMeter(noiseMHz float64) *BoardMeter {
	return &BoardMeter{NoiseMHz: noiseMHz}
}

// MeasureInto fills dst with one noisy frequency reading (in MHz) per
// device of the die under env, drawing the board's noise from rng.
// len(dst) must equal die.NumDevices(). The same buffer may be reused
// across boards and environments; dst is returned for chaining.
func (bm *BoardMeter) MeasureInto(dst []float64, die *silicon.Die, env silicon.Env, rng *rngx.RNG) ([]float64, error) {
	if bm.NoiseMHz < 0 {
		return nil, fmt.Errorf("measure: NoiseMHz must be non-negative, got %g", bm.NoiseMHz)
	}
	n := die.NumDevices()
	if len(dst) != n {
		return nil, fmt.Errorf("measure: board buffer has %d entries, die has %d devices", len(dst), n)
	}
	if cap(bm.noise) < n {
		bm.noise = make([]float64, n)
	}
	noise := bm.noise[:n]
	if _, err := die.DelaysIntoPS(dst, env); err != nil {
		return nil, err
	}
	rng.NormFill(noise, 0, bm.NoiseMHz)
	for i, d := range dst {
		// Base is a half-period: period = 2·delay, frequency in MHz.
		dst[i] = 1e6/(2*d) + noise[i]
	}
	return dst, nil
}

// Measure is MeasureInto with a freshly allocated result buffer.
func (bm *BoardMeter) Measure(die *silicon.Die, env silicon.Env, rng *rngx.RNG) ([]float64, error) {
	return bm.MeasureInto(make([]float64, die.NumDevices()), die, env, rng)
}
