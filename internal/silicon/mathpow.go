package silicon

import "math"

// mathPow isolates the math.Pow dependency of the factor kernel. It must
// stay math.Pow: every delay, and through it every corpus frequency and
// PUF bit, is pinned bit for bit by the goldens (wire_v1, ddiffs_v1,
// stream_v1, stats_v1) and by the whole-corpus digest, so a cheaper
// approximation is a change of the model's output, not an optimization.
func mathPow(base, exp float64) float64 { return math.Pow(base, exp) }
