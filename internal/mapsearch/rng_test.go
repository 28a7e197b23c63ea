package mapsearch

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestLFGSourceMatchesMathRand holds lfgSource to rand.NewSource's stream:
// the same values for every seed class the seeding treats apart (zero,
// negatives, the modulus and its neighbours, the int64 extremes, the seed
// zero stands in for) and a thousand seeded random seeds, over mixed
// Int63/Uint64 draws, and again after a re-Seed.
func TestLFGSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, lehmerP, -lehmerP, lehmerP - 1, lehmerP + 1,
		math.MinInt64, math.MaxInt64, 89482311}
	pick := rand.New(rand.NewSource(607273))
	for i := 0; i < 1000; i++ {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	const draws = 3000
	check := func(seed int64, got *lfgSource, want rand.Source64) {
		t.Helper()
		for n := 0; n < draws; n++ {
			if n%3 == 0 {
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d, draw %d: Int63 %d, want %d", seed, n, g, w)
				}
			} else if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d, draw %d: Uint64 %d, want %d", seed, n, g, w)
			}
		}
	}
	for _, seed := range seeds {
		var src lfgSource
		src.Seed(seed)
		check(seed, &src, rand.NewSource(seed).(rand.Source64))
		// Re-seeding a used source starts the new seed's stream afresh.
		src.Seed(^seed)
		check(^seed, &src, rand.NewSource(^seed).(rand.Source64))
	}
}

// TestLazySourceMatchesEagerSource holds the first-draw-seeded source to the
// stream of rand.NewSource: same seed, same values, whichever method draws
// first and however the draws are mixed.
func TestLazySourceMatchesEagerSource(t *testing.T) {
	seeds := []int64{0, 1, -1, -987654321, math.MaxInt64, math.MinInt64, 1 << 31, 1<<31 - 1}
	for i := 0; i < 6; i++ {
		seeds = append(seeds, 9+int64(i)*1_000_003)
	}
	for _, seed := range seeds {
		for first := 0; first < 5; first++ {
			lazy := rand.New(&lazySource{seed: seed})
			eager := rand.New(rand.NewSource(seed))
			for n := 0; n < 10_000; n++ {
				var got, want any
				switch (first + n) % 5 {
				case 0:
					got, want = lazy.Intn(n+1), eager.Intn(n+1)
				case 1:
					got, want = lazy.Float64(), eager.Float64()
				case 2:
					got, want = lazy.Int63(), eager.Int63()
				case 3:
					got, want = lazy.Uint64(), eager.Uint64()
				default:
					got, want = fmt.Sprint(lazy.Perm(n%7+1)), fmt.Sprint(eager.Perm(n%7+1))
				}
				if got != want {
					t.Fatalf("seed %d, draw %d (first method %d): lazy %v, eager %v", seed, n, first, got, want)
				}
			}
		}
		// Re-seeding restarts the stream, as it does for the eager source.
		lazy := rand.New(&lazySource{seed: seed})
		lazy.Int63()
		lazy.Seed(seed + 1)
		if got, want := lazy.Int63(), rand.New(rand.NewSource(seed+1)).Int63(); got != want {
			t.Fatalf("seed %d: after Seed lazy draws %d, eager %d", seed, got, want)
		}
	}
	if rng := newLayerRand(9, 3); rng.Int63() != rand.New(rand.NewSource(9+3*1_000_003)).Int63() {
		t.Fatal("newLayerRand(9, 3) is not the seed + i·1_000_003 stream")
	}
}

// BenchmarkSeed compares one layer generator's seeding with math/rand's.
func BenchmarkSeed(b *testing.B) {
	b.Run("lfgSource", func(b *testing.B) {
		var s lfgSource
		for i := 0; i < b.N; i++ {
			s.Seed(int64(i))
		}
	})
	b.Run("math/rand", func(b *testing.B) {
		s := rand.NewSource(0)
		for i := 0; i < b.N; i++ {
			s.Seed(int64(i))
		}
	})
}
