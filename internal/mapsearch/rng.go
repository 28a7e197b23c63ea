package mapsearch

import "math/rand"

// lfgSource is math/rand's rngSource, bit for bit: the additive lagged
// Fibonacci generator x[n] = x[n-607] + x[n-273] mod 2⁶⁴, seeded from a
// Lehmer sequence mixed into a fixed register. Only the seeding is computed
// differently. math/rand runs the 1 841 Lehmer steps x ← 48271·x mod (2³¹−1)
// as one dependency chain; here step k is seedPowers[k-1]·seed, so the steps
// are independent multiplies the CPU overlaps instead of a chain it waits
// on. Seeding is most of what starting a layer search costs.
type lfgSource struct {
	tap, feed int
	vec       [lfgLen]int64
}

const (
	lfgLen  = 607
	lfgTap  = 273
	lehmerP = 1<<31 - 1 // the Lehmer modulus, a Mersenne prime
	// seedSteps is how many Lehmer steps a seeding takes: 20 to warm up,
	// then three per register word.
	seedSteps = 20 + 3*lfgLen
)

var (
	// seedPowers[k] is 48271^(k+1) mod (2³¹−1).
	seedPowers [seedSteps]uint32
	// cooked is the register math/rand XORs every seeding's mix into
	// (rngCooked there), read back from math/rand's own stream at init.
	cooked [lfgLen]int64
)

func init() {
	p := uint64(1)
	for k := range seedPowers {
		p = p * 48271 % lehmerP
		seedPowers[k] = uint32(p)
	}
	cooked = recoverCooked()
}

// mulModP returns a·x mod (2³¹−1) for a, x in [1, 2³¹−2]: the product is
// below 2⁶², so one Mersenne fold leaves it below 2·(2³¹−1).
func mulModP(a, x uint64) int64 {
	y := a * x
	y = y&lehmerP + y>>31
	if y >= lehmerP {
		y -= lehmerP
	}
	return int64(y)
}

// Seed resets the generator to the state rand.NewSource(seed) starts in.
func (s *lfgSource) Seed(seed int64) {
	s.tap, s.feed = 0, lfgLen-lfgTap
	seed %= lehmerP
	if seed < 0 {
		seed += lehmerP
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	for i := range s.vec {
		p := seedPowers[20+3*i : 23+3*i]
		u := mulModP(uint64(p[0]), x) << 40
		u ^= mulModP(uint64(p[1]), x) << 20
		u ^= mulModP(uint64(p[2]), x)
		s.vec[i] = u ^ cooked[i]
	}
}

// Uint64 returns the next 64 bits of the stream.
func (s *lfgSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += lfgLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += lfgLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next 63 bits of the stream.
func (s *lfgSource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// recoverCooked reads math/rand's fixed register back out of its public
// stream. The first 607 draws of a source determine its initial register v:
// draw n (1-based) adds the word at feed 334−n (mod 607) to the word at tap
// 607−n, and from draw 274 on that tap word is draw n−273 itself, so each of
// the last 334 draws gives one word by a subtraction, after which each of
// the first 273 gives the one word it still lacks. v is the register XOR
// the seed's mix, and the mix is what Seed computes while cooked is still
// zero.
func recoverCooked() [lfgLen]int64 {
	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	var out [lfgLen + 1]int64
	for n := 1; n <= lfgLen; n++ {
		out[n] = int64(src.Uint64())
	}
	var v [lfgLen]int64
	for n := lfgTap + 1; n <= lfgLen; n++ {
		v[(lfgLen-lfgTap-n+lfgLen)%lfgLen] = out[n] - out[n-lfgTap]
	}
	for n := 1; n <= lfgTap; n++ {
		v[lfgLen-lfgTap-n] = out[n] - v[lfgLen-n]
	}
	var mix lfgSource
	mix.Seed(seed)
	for i := range v {
		v[i] ^= mix.vec[i]
	}
	return v
}

// lazySource is the generator of one layer search, seeded at its first draw
// rather than when the search is built: the same seed gives the same stream,
// but the seeding leaves job construction, which the co-search runs
// serially, for the layer's first random step, which successive halving runs
// in parallel. Searches whose layers never draw never pay for it.
type lazySource struct {
	seed int64
	src  *lfgSource // nil until the first draw
}

// newLayerRand returns layer i's generator of a network search seeded with
// seed: rand.New(rand.NewSource(seed + i·1 000 003)), seeded on first draw.
func newLayerRand(seed int64, i int) *rand.Rand {
	return rand.New(&lazySource{seed: seed + int64(i)*1_000_003})
}

func (s *lazySource) seeded() *lfgSource {
	if s.src == nil {
		s.src = new(lfgSource)
		s.src.Seed(s.seed)
	}
	return s.src
}

func (s *lazySource) Int63() int64   { return s.seeded().Int63() }
func (s *lazySource) Uint64() uint64 { return s.seeded().Uint64() }
func (s *lazySource) Seed(seed int64) {
	s.seed, s.src = seed, nil
}
