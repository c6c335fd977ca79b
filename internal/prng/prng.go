// Package prng provides the counter-based pseudorandom streams that back
// MCDB-R's TS-seeds, plus the distribution samplers used by VG functions.
//
// MCDB-R requires random access into a stream of random data: the Gibbs
// rejection sampler consumes stream elements out of order, cloning copies
// stream positions between DB versions, and positions beyond a seed's
// materialized window are drawn on demand long after it was filled. Sequential generators
// cannot do this cheaply, so element i of stream s is a pure function of
// (s, i): we derive an independent SplitMix64-seeded substream for each
// element, and samplers that need a variable number of uniforms (gamma
// rejection, Poisson inversion) draw as many as they like from that
// substream without disturbing neighbouring elements.
package prng

import "math"

// splitmix64 advances the SplitMix64 state and returns the next output.
// Reference: Steele, Lea, Flood, "Fast Splittable Pseudorandom Number
// Generators", OOPSLA 2014.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// mix64 is a stateless finalizer used to combine seed material.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Stream is an infinite, randomly addressable sequence of random elements.
// The zero value is a valid stream with seed 0.
type Stream struct {
	seed uint64
}

// NewStream returns the stream identified by seed. Streams with distinct
// seeds are (statistically) independent.
func NewStream(seed uint64) Stream { return Stream{seed: seed} }

// Seed returns the stream's identifying seed.
func (s Stream) Seed() uint64 { return s.seed }

// At returns the substream for element i of the stream. The substream is
// deterministic: At(i) always yields the same sequence of draws, regardless
// of the order in which elements are visited.
func (s Stream) At(i uint64) *Sub {
	sub := s.SubAt(i)
	return &sub
}

// SubAt is At by value: hot loops that materialize thousands of stream
// elements keep the substream on the stack instead of allocating one per
// element. SubAt(i) and At(i) yield identical draw sequences.
func (s Stream) SubAt(i uint64) Sub {
	return Sub{state: mix64(s.seed+0x632be59bd9b4e019) ^ mix64(i*0x9e3779b97f4a7c15+0x2545f4914f6cdd1d)}
}

// Derive returns a child stream; used to give each TS-seed its own stream
// from an engine-level master seed, and each VG output column its own lane.
func (s Stream) Derive(n uint64) Stream {
	return Stream{seed: mix64(s.seed ^ mix64(n+0xd1b54a32d192ed03))}
}

// Sub is a sequential generator scoped to one stream element.
type Sub struct {
	state uint64
}

// NewSub returns a standalone substream; handy for tests and ad-hoc
// simulation that does not need stream addressing.
func NewSub(seed uint64) *Sub { return &Sub{state: mix64(seed)} }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Sub) Uint64() uint64 { return splitmix64(&r.state) }

// Float64 returns a uniform float in [0, 1) with 53 bits of precision.
func (r *Sub) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform float in (0, 1); never exactly 0 or 1.
// Samplers that take logarithms or inverse-CDFs use this form.
func (r *Sub) Float64Open() float64 {
	for {
		f := (float64(r.Uint64()>>11) + 0.5) / (1 << 53)
		if f > 0 && f < 1 {
			return f
		}
	}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Sub) Intn(n int) int {
	if n <= 0 {
		panic("prng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling.
	bound := uint64(n)
	x := r.Uint64()
	hi, lo := mul128(x, bound)
	if lo < bound {
		thresh := (-bound) % bound
		for lo < thresh {
			x = r.Uint64()
			hi, lo = mul128(x, bound)
		}
	}
	return int(hi)
}

func mul128(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo*bHi + (aLo*bLo)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += aHi * bLo
	hi = aHi*bHi + w2 + (w1 >> 32)
	lo = a * b
	return hi, lo
}

// Norm returns a standard normal draw using the Marsaglia polar method.
func (r *Sub) Norm() float64 {
	for {
		u := 2*r.Float64Open() - 1
		v := 2*r.Float64Open() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Exp returns an Exponential(1) draw.
func (r *Sub) Exp() float64 { return -math.Log(r.Float64Open()) }

// Gamma returns a Gamma(shape, scale) draw using Marsaglia–Tsang for
// shape >= 1 and the boost transform for shape < 1. It panics on
// non-positive parameters.
func (r *Sub) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("prng: Gamma requires positive shape and scale")
	}
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) * U^{1/a}
		u := r.Float64Open()
		return r.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.Norm()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64Open()
		if u < 1-0.0331*x*x*x*x {
			return scale * d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return scale * d * v
		}
	}
}

// Poisson returns a Poisson(lambda) draw. It uses inversion for small
// lambda and the PTRS transformed-rejection method of Hörmann for large.
func (r *Sub) Poisson(lambda float64) int64 {
	if lambda <= 0 {
		panic("prng: Poisson requires positive lambda")
	}
	if lambda < 30 {
		l := math.Exp(-lambda)
		k := int64(0)
		p := 1.0
		for {
			p *= r.Float64Open()
			if p <= l {
				return k
			}
			k++
		}
	}
	// PTRS (Hörmann 1993).
	b := 0.931 + 2.53*math.Sqrt(lambda)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	for {
		u := r.Float64Open() - 0.5
		v := r.Float64Open()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + lambda + 0.43)
		if us >= 0.07 && v <= vr {
			return int64(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		lg, _ := math.Lgamma(k + 1)
		if math.Log(v*invAlpha/(a/(us*us)+b)) <= k*math.Log(lambda)-lambda-lg {
			return int64(k)
		}
	}
}
