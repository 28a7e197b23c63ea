// Package lfg is math/rand's generator, bit for bit, holding no draws until
// the recurrence needs them.
//
// math/rand's source is the lagged Fibonacci generator x[k] = x[k−607] +
// x[k−273] mod 2⁶⁴ over a 607-word register seeded from a Lehmer sequence
// mixed into a fixed table. With w[i] register word i right after seeding,
//
//	x[k] = (k ≥ 607 ? x[k−607] : w[(333−k) mod 607]) + (k ≥ 273 ? x[k−273] : w[606−k])
//
// and w[i] is three Lehmer steps of the seed, each a precomputed power of
// 48271 times it. So a source seeds nothing up front: until draw 607 it keeps
// its seed and a draw count, and draw k is two to four register words summed
// by the recurrence. From draw 607 on the feed reads a draw, x[k−607], so
// there the source fills math/rand's 607-word ring once, each register word
// computed once, and runs the recurrence in place from then on.
package lfg

import "math/rand"

const (
	regLen  = 607
	regTap  = 273
	lehmerP = 1<<31 - 1 // the Lehmer modulus, a Mersenne prime
)

var (
	// seedPowers[k] is 48271^(k+1) mod (2³¹−1): a seeding's 20 warm-up
	// steps, then three per register word.
	seedPowers [20 + 3*regLen]uint32
	// cooked is the table math/rand XORs every seeding's mix into
	// (rngCooked there), read back from math/rand's own stream at init.
	cooked [regLen]int64
)

func init() {
	p := uint64(1)
	for k := range seedPowers {
		p = p * 48271 % lehmerP
		seedPowers[k] = uint32(p)
	}
	cooked = recoverCooked()
}

// New returns a generator of rand.New(rand.NewSource(seed))'s stream.
func New(seed int64) *rand.Rand {
	s := new(source)
	s.Seed(seed)
	return rand.New(s)
}

// source is math/rand's rngSource computed from its draws rather than from
// a seeded register.
type source struct {
	x    uint64  // the Lehmer seed, in [1, 2³¹−2]
	k    int     // the draws made, counted up to regLen
	vec  []int64 // nil before draw regLen, then the ring of the last regLen draws
	feed int     // ring position of x[k−607] for the next draw k ≥ regLen; x[k−273]'s is regLen−regTap on
}

// Seed restarts the stream at rand.NewSource(seed)'s first draw.
func (s *source) Seed(seed int64) {
	seed %= lehmerP
	if seed < 0 {
		seed += lehmerP
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x, s.k, s.vec, s.feed = uint64(seed), 0, nil, 0
}

// Uint64 returns the next 64 bits of the stream.
func (s *source) Uint64() uint64 {
	if s.k < regLen {
		s.k++
		return uint64(prefix(s.x, s.k-1))
	}
	if s.vec == nil {
		s.vec = ring(s.x)
	}
	tap := s.feed + regLen - regTap
	if tap >= regLen {
		tap -= regLen
	}
	x := s.vec[s.feed] + s.vec[tap]
	s.vec[s.feed] = x
	if s.feed++; s.feed == regLen {
		s.feed = 0
	}
	return uint64(x)
}

// Int63 returns the next 63 bits of the stream.
func (s *source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// prefix returns draw k < regLen of Lehmer seed x: its feed word, plus its
// tap word while k < regTap, or else draw k−regTap, unrolled the same way.
func prefix(x uint64, k int) (d int64) {
	for ; k >= regTap; k -= regTap {
		d += word(x, (2*regLen-regTap-1-k)%regLen)
	}
	return d + word(x, (2*regLen-regTap-1-k)%regLen) + word(x, regLen-1-k)
}

// ring returns draws 0…regLen−1 of Lehmer seed x, computing each register
// word once: the feed words of those draws are the register in some order,
// and draw k < regTap's tap word is draw k+regLen−regTap's feed word.
func ring(x uint64) []int64 {
	vec := make([]int64, regLen)
	for k := range vec {
		vec[k] = word(x, (2*regLen-regTap-1-k)%regLen)
	}
	for k := 0; k < regTap; k++ {
		vec[k] += vec[k+regLen-regTap]
	}
	for k := regTap; k < regLen; k++ {
		vec[k] += vec[k-regTap]
	}
	return vec
}

// word returns register word i as seeding with Lehmer seed x leaves it.
func word(x uint64, i int) int64 {
	p := seedPowers[20+3*i : 23+3*i]
	return mulModP(uint64(p[0]), x)<<40 ^ mulModP(uint64(p[1]), x)<<20 ^ mulModP(uint64(p[2]), x) ^ cooked[i]
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

// recoverCooked reads math/rand's fixed table back out of its public stream.
// By the recurrence above, draw k < 607 is w[(333−k) mod 607] + w[606−k]
// while k < 273 and w[(333−k) mod 607] + x[k−273] after, so each of draws
// 273…606 gives one word by a subtraction, after which each of draws 0…272
// gives the one word it still lacks. w is the table XOR the seed's mix, and
// the mix is what word computes while cooked is still zero.
func recoverCooked() [regLen]int64 {
	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	var x [regLen]int64
	for k := range x {
		x[k] = int64(src.Uint64())
	}
	var w [regLen]int64
	for k := regTap; k < regLen; k++ {
		w[(2*regLen-regTap-1-k)%regLen] = x[k] - x[k-regTap]
	}
	for k := 0; k < regTap; k++ {
		w[regLen-regTap-1-k] = x[k] - w[regLen-1-k]
	}
	for i := range w {
		w[i] ^= word(seed, i)
	}
	return w
}
