package lfg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// seeds are the seed classes the seeding treats apart — zero, negatives,
// the modulus and its neighbours, the int64 extremes, the seed zero stands
// in for — and n seeded random seeds.
func seeds(n int) []int64 {
	out := []int64{0, 1, -1, lehmerP, -lehmerP, lehmerP - 1, lehmerP + 1,
		math.MinInt64, math.MaxInt64, 89482311}
	pick := rand.New(rand.NewSource(607273))
	for i := 0; i < n; i++ {
		out = append(out, int64(pick.Uint64()))
	}
	return out
}

// drawCounts are where the recurrence changes what a draw reads — the tap
// moves from register to draws at 273, the feed wraps in the register at
// 334, a draw first sums four register words at 546, both read draws from
// 607 — and a point far into the ring.
var drawCounts = []int{0, 1, 272, 273, 274, 333, 334, 335, 545, 546, 547, 606, 607, 608, 5000}

// sameDraws compares n draws of got and want, mixing Int63 and Uint64.
func sameDraws(got *source, want rand.Source64, n int) error {
	for k := 0; k < n; k++ {
		if k%3 == 0 {
			if g, w := got.Int63(), want.Int63(); g != w {
				return fmt.Errorf("draw %d: Int63 %d, want %d", k, g, w)
			}
		} else if g, w := got.Uint64(), want.Uint64(); g != w {
			return fmt.Errorf("draw %d: Uint64 %d, want %d", k, g, w)
		}
	}
	return nil
}

// TestSourceMatchesMathRand holds source to rand.NewSource's stream for
// every seed class: the draws up to and just past each of drawCounts agree,
// and a re-Seed there — inside the prefix or inside the ring — starts the
// new seed's stream afresh, through the ring's first turn.
func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range seeds(200) {
		for _, n := range drawCounts {
			got, want := new(source), rand.NewSource(seed).(rand.Source64)
			got.Seed(seed)
			if err := sameDraws(got, want, n+1); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			got.Seed(^seed)
			want.Seed(^seed)
			if err := sameDraws(got, want, 700); err != nil {
				t.Fatalf("seed %d re-seeded with %d after %d draws: %v", seed, ^seed, n+1, err)
			}
		}
	}
}

// draw makes one call of rand.Rand method m (mod 5) and prints its result.
func draw(r *rand.Rand, m int) string {
	switch m % 5 {
	case 0:
		return fmt.Sprint(r.Intn(m + 1))
	case 1:
		return fmt.Sprint(r.Float64())
	case 2:
		return fmt.Sprint(r.Int63())
	case 3:
		return fmt.Sprint(r.Uint64())
	default:
		return fmt.Sprint(r.Perm(m%7 + 1))
	}
}

// TestRandMethodsMatchMathRand holds New to rand.New(rand.NewSource(seed))
// through rand.Rand's methods, mixed and starting with each of them, and
// through rand.Rand.Seed inside the prefix (call 100) and inside the ring
// (call 4 000).
func TestRandMethodsMatchMathRand(t *testing.T) {
	for _, seed := range seeds(6) {
		for first := 0; first < 5; first++ {
			got, want := New(seed), rand.New(rand.NewSource(seed))
			for n := 0; n < 10_000; n++ {
				if n == 100 || n == 4000 {
					got.Seed(seed + int64(n))
					want.Seed(seed + int64(n))
				}
				if g, w := draw(got, first+n), draw(want, first+n); g != w {
					t.Fatalf("seed %d, call %d (first method %d): %s, want %s", seed, n, first, g, w)
				}
			}
		}
	}
}

// TestLayerRandHoldsItsDraws pins the storage rule: a made source allocates
// nothing through draw 606, allocates one ring of exactly 607 words at draw
// 607 and keeps it from then on, and drops it when re-seeded.
func TestLayerRandHoldsItsDraws(t *testing.T) {
	s := new(source)
	run := func(draws int) func() {
		return func() {
			s.Seed(5)
			for d := 0; d < draws; d++ {
				s.Uint64()
			}
		}
	}
	if a := testing.AllocsPerRun(20, run(regLen)); a != 0 {
		t.Fatalf("%d draws allocate %v times, want 0", regLen, a)
	}
	if s.vec != nil {
		t.Fatalf("after %d draws the source holds a buffer of %d words", regLen, cap(s.vec))
	}
	if a := testing.AllocsPerRun(20, run(3000)); a != 1 {
		t.Fatalf("3000 draws allocate %v times, want 1", a)
	}
	s.Seed(5)
	run(regLen + 1)()
	ring := &s.vec[0]
	for d := regLen + 1; d <= 3000; d++ {
		if len(s.vec) != regLen || cap(s.vec) != regLen || &s.vec[0] != ring {
			t.Fatalf("after %d draws the source holds %d of %d words, want the first ring of %d", d, len(s.vec), cap(s.vec), regLen)
		}
		s.Uint64()
	}
	s.Seed(6)
	if s.vec != nil {
		t.Fatal("a re-seed keeps the ring")
	}
}

// FuzzLayerRand holds New to rand.New(rand.NewSource(seed)) for any seed,
// up to 4 000 calls and any mix of rand.Rand methods; a method byte of 5
// (mod 6) re-seeds both.
func FuzzLayerRand(f *testing.F) {
	f.Add(int64(1), uint16(700), []byte{0, 1, 2, 3, 4})
	f.Add(int64(0), uint16(274), []byte{3})
	f.Add(int64(-lehmerP), uint16(3999), []byte{2, 4, 4, 11, 5, 3})
	f.Add(int64(7), uint16(547), []byte{3})
	f.Add(int64(-1), uint16(881), []byte{2, 3})
	f.Fuzz(func(t *testing.T, seed int64, draws uint16, methods []byte) {
		got, want := New(seed), rand.New(rand.NewSource(seed))
		for n := 0; n < int(draws)%4000; n++ {
			m := n
			if len(methods) > 0 {
				m = int(methods[n%len(methods)])
			}
			if m%6 == 5 {
				got.Seed(seed ^ int64(n))
				want.Seed(seed ^ int64(n))
				continue
			}
			if g, w := draw(got, m), draw(want, m); g != w {
				t.Fatalf("seed %d, call %d (method %d): %s, want %s", seed, n, m%5, g, w)
			}
		}
	})
}

var sink uint64

// BenchmarkFirstDraws prices a generator as a layer search uses it: made,
// then d draws, against math/rand's. A source's first 607 draws compute two
// to four register words each, and draw 607 computes all 607 once more to
// fill the ring, which math/rand's eager seeding does once up front.
func BenchmarkFirstDraws(b *testing.B) {
	for _, d := range []int{16, 128, 607, 3000} {
		b.Run(fmt.Sprintf("d=%d/lfg", d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := New(int64(i))
				for k := 0; k < d; k++ {
					sink += r.Uint64()
				}
			}
		})
		b.Run(fmt.Sprintf("d=%d/math-rand", d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := rand.New(rand.NewSource(int64(i)))
				for k := 0; k < d; k++ {
					sink += r.Uint64()
				}
			}
		})
	}
}
