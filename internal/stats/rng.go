package stats

import "math"

// RNG is a small deterministic pseudo-random generator (xorshift64*).
// ThirstyFLOPS uses it instead of math/rand so that every synthetic
// substrate (weather, grid mix, job traces) is reproducible bit-for-bit
// across Go versions: the xorshift64* stream is fully specified here,
// whereas math/rand's default source has changed between releases.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. A zero seed is remapped to a
// fixed non-zero constant because xorshift has an all-zero fixed point.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next 64-bit value in the stream.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	// Use the top 53 bits for a full-precision mantissa.
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Norm returns a standard normal deviate using the Box-Muller transform.
func (r *RNG) Norm() float64 {
	// Avoid log(0) by nudging u1 away from zero.
	u1 := r.Float64()
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// SkipNorm advances the stream past one Norm draw without computing it,
// for a caller that must keep its stream aligned but does not read the
// deviate: the stream continues exactly as after Norm.
func (r *RNG) SkipNorm() {
	r.Uint64()
	r.Uint64()
}

// NormMeanStd returns a normal deviate with the given mean and standard
// deviation.
func (r *RNG) NormMeanStd(mean, std float64) float64 {
	return mean + std*r.Norm()
}

// LogNormal returns a log-normal deviate with the given parameters of the
// underlying normal (mu, sigma).
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.NormMeanStd(mu, sigma))
}

// Exp returns an exponential deviate with the given rate (mean 1/rate).
func (r *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("stats: Exp with non-positive rate")
	}
	u := r.Float64()
	if u < 1e-300 {
		u = 1e-300
	}
	return -math.Log(u) / rate
}
