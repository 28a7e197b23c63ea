package mobo

import (
	"fmt"
	"math/rand"
)

// countingSource wraps the optimizer's random source and counts how many
// values have been drawn from it. math/rand's source advances by exactly one
// step per Int63 or Uint64 call, so the count is a stream position: two
// sources with the same seed and the same position produce the same future
// draws. That is what lets a resumed run replay the optimizer's RNG without
// serializing the source's internal state — the checkpoint records the
// position, and SeekRNG burns draws until a fresh source catches up.
type countingSource struct {
	src rand.Source64
	pos uint64
}

func newCountingSource(seed int64) *countingSource {
	// rand.NewSource's concrete type implements Source64 (documented since
	// Go 1.8), so the assertion cannot fail.
	return &countingSource{src: rand.NewSource(seed).(rand.Source64)}
}

func (s *countingSource) Int63() int64 {
	s.pos++
	return s.src.Int63()
}

func (s *countingSource) Uint64() uint64 {
	s.pos++
	return s.src.Uint64()
}

func (s *countingSource) Seed(seed int64) {
	s.src.Seed(seed)
	s.pos = 0
}

// RNGPos returns the optimizer's RNG stream position: how many values have
// been drawn since the source was seeded.
func (o *Optimizer) RNGPos() uint64 { return o.src.pos }

// SeekRNG fast-forwards the optimizer's RNG to stream position pos by
// discarding draws. Seeking backwards is impossible for a forward-only
// stream and reports an error.
func (o *Optimizer) SeekRNG(pos uint64) error {
	if pos < o.src.pos {
		return fmt.Errorf("mobo: cannot seek RNG backwards (at %d, want %d)", o.src.pos, pos)
	}
	for o.src.pos < pos {
		o.src.Uint64()
	}
	return nil
}
