package measure

import (
	"fmt"
	"testing"

	"ropuf/internal/circuit"
	"ropuf/internal/rngx"
	"ropuf/internal/silicon"
)

// benchRing builds a ring big enough for the requested stage count
// (3 devices per stage plus the enable gate).
func benchRing(b *testing.B, stages int) *circuit.Ring {
	b.Helper()
	side := 1
	for side*side < 3*stages+1 {
		side++
	}
	die, err := silicon.NewDie(silicon.DefaultParams(), side, side, rngx.New(uint64(stages)))
	if err != nil {
		b.Fatal(err)
	}
	r, err := circuit.NewBuilder(die).BuildRing(stages, circuit.DefaultMuxScale, circuit.DefaultWireScale)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

var benchSizes = []int{16, 64, 256}

// BenchmarkDdiffsNaive measures the direct leave-one-out protocol: n+1
// whole-ring evaluations, each recomputing every device's alpha-power-law
// environment factors (the pre-optimization cost model).
func BenchmarkDdiffsNaive(b *testing.B) {
	for _, stages := range benchSizes {
		b.Run(fmt.Sprintf("stages=%d", stages), func(b *testing.B) {
			r := benchRing(b, stages)
			m := NewMeter(silicon.Nominal, rngx.New(1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.DdiffsNaive(r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDdiffsFast measures the incremental protocol: stage delays
// tabulated once off the cached environment table, leave-one-out
// half-periods derived from the all-selected total.
func BenchmarkDdiffsFast(b *testing.B) {
	for _, stages := range benchSizes {
		b.Run(fmt.Sprintf("stages=%d", stages), func(b *testing.B) {
			r := benchRing(b, stages)
			m := NewMeter(silicon.Nominal, rngx.New(1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Ddiffs(r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPairDdiffs measures the enrollment-facing entry point (two rings
// per PUF pair) on the incremental path.
func BenchmarkPairDdiffs(b *testing.B) {
	const stages = 64
	die, err := silicon.NewDie(silicon.DefaultParams(), 20, 20, rngx.New(2))
	if err != nil {
		b.Fatal(err)
	}
	builder := circuit.NewBuilder(die)
	top, err := builder.BuildRing(stages, circuit.DefaultMuxScale, circuit.DefaultWireScale)
	if err != nil {
		b.Fatal(err)
	}
	bottom, err := builder.BuildRing(stages, circuit.DefaultMuxScale, circuit.DefaultWireScale)
	if err != nil {
		b.Fatal(err)
	}
	m := NewMeter(silicon.Nominal, rngx.New(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.PairDdiffs(top, bottom); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBoardMeter measures one VT-corpus board the way the corpus
// generator makes it: fabricate a fresh 512-RO die, then one MeasureInto
// under one environment — a cold die with nothing cached. env=nominal is
// what 194 of the 199 default-corpus boards cost; env=sweep is one
// off-nominal read of an environment board. boards/s is the throughput
// figure; BenchmarkNewDie512 (internal/silicon) is the fabrication share.
func BenchmarkBoardMeter(b *testing.B) {
	p := silicon.DefaultParams()
	p.NominalDelayPS = 5208
	for _, bc := range []struct {
		name string
		env  silicon.Env
	}{
		{"nominal", silicon.Nominal},
		{"sweep", silicon.Env{V: 0.98, T: 25}},
	} {
		b.Run("cold/env="+bc.name, func(b *testing.B) {
			bm := NewBoardMeter(0.01)
			rng := rngx.New(7)
			dst := make([]float64, 16*32)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				die, err := silicon.NewDie(p, 16, 32, rngx.New(uint64(i)))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := bm.MeasureInto(dst, die, bc.env, rng); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "boards/s")
		})
	}
}
