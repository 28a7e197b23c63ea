package mobo

import (
	"reflect"
	"testing"
)

// drive runs iters suggest/update rounds against the synthetic objective.
func drive(o *Optimizer, iters, batch, nObj int) [][][]float64 {
	var suggested [][][]float64
	for i := 0; i < iters; i++ {
		xs := o.SuggestBatch(batch)
		suggested = append(suggested, xs)
		obs := make([]Observation, len(xs))
		for j, x := range xs {
			obs[j] = Observation{X: x, Y: synthObjectives(x, nObj)}
		}
		o.Update(obs)
	}
	return suggested
}

// replayed rebuilds o the way a resume does: a fresh optimizer on cfg and
// seed takes o's observations through Update, batch at a time, and seeks its
// RNG to o's position.
func replayed(t *testing.T, o *Optimizer, cfg Config, seed int64, batch int) *Optimizer {
	t.Helper()
	r := New(o.space, cfg, seed)
	for i := 0; i < len(o.all); i += batch {
		r.Update(o.all[i:min(i+batch, len(o.all))])
	}
	if err := r.SeekRNG(o.RNGPos()); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestReplayBitIdentical is the package-level half of the resume guarantee:
// an optimizer rebuilt by replaying another's batches through Update, which
// draws no RNG, suggests exactly the batches the original goes on to
// suggest, after fitting and extending its surrogates as often.
func TestReplayBitIdentical(t *testing.T) {
	const nObj, batch = 3, 8
	cfg := DefaultConfig(nObj)

	ref := New(testSpace(), cfg, 42)
	drive(ref, 3, batch, nObj)
	tail := drive(ref, 3, batch, nObj)

	cut := New(testSpace(), cfg, 42)
	drive(cut, 3, batch, nObj)
	r := replayed(t, cut, cfg, 42, batch)
	if r.TrainSize() != cut.TrainSize() {
		t.Fatalf("train size %d, want %d", r.TrainSize(), cut.TrainSize())
	}
	if got, want := r.Counts(), cut.Counts(); got.Fits != want.Fits || got.Extends != want.Extends {
		t.Fatalf("replay made %d fits and %d extends, the original %d and %d", got.Fits, got.Extends, want.Fits, want.Extends)
	}
	got := drive(r, 3, batch, nObj)
	if !reflect.DeepEqual(got, tail) {
		t.Fatalf("replayed optimizer diverged from original:\n got %v\nwant %v", got, tail)
	}
}

// TestSeekRNGBackwardsFails pins the forward-only contract.
func TestSeekRNGBackwardsFails(t *testing.T) {
	o := New(testSpace(), DefaultConfig(3), 1)
	o.SuggestBatch(4)
	if o.RNGPos() == 0 {
		t.Fatal("SuggestBatch consumed no RNG draws")
	}
	if err := o.SeekRNG(0); err == nil {
		t.Fatal("backwards seek succeeded")
	}
}

// TestSuggestBatchIdenticalAcrossWorkers is the package-level half of the
// serial-vs-parallel guarantee: every SearchWorkers value must produce
// bit-identical suggestions, updates and RNG positions, and count the same
// work.
func TestSuggestBatchIdenticalAcrossWorkers(t *testing.T) {
	const nObj, batch = 3, 8
	run := func(workers int) ([][][]float64, uint64, Counts) {
		cfg := DefaultConfig(nObj)
		cfg.SearchWorkers = workers
		o := New(testSpace(), cfg, 99)
		got := drive(o, 6, batch, nObj)
		return got, o.RNGPos(), o.Counts()
	}
	want, wantPos, wantCounts := run(1)
	if c := wantCounts; c.Fits == 0 || c.Extends == 0 || c.Solved == 0 || c.Completed > c.Solved || c.Solved > c.Bounded {
		t.Fatalf("serial counts %+v: want fits, extends and solved candidates, completed ≤ solved ≤ bounded", c)
	}
	for _, workers := range []int{2, 8, 32} {
		got, pos, counts := run(workers)
		if pos != wantPos {
			t.Fatalf("workers=%d: RNG position %d, serial %d", workers, pos, wantPos)
		}
		if counts != wantCounts {
			t.Fatalf("workers=%d: counts %+v, serial %+v", workers, counts, wantCounts)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: suggestions diverged from serial", workers)
		}
	}
}

// TestWarmRefitCadence checks the incremental path actually runs between
// full refits and the cadence forces periodic re-selection.
func TestWarmRefitCadence(t *testing.T) {
	const nObj, batch = 2, 6
	o := New(testSpace(), DefaultConfig(nObj), 7)
	sawExtend := false
	sawReset := false
	prev := 0
	for i := 0; i < 8; i++ {
		drive(o, 1, batch, nObj)
		if o.gps == nil {
			continue
		}
		if o.sinceRefit > prev {
			sawExtend = true
		}
		if o.sinceRefit == 0 && prev > 0 {
			sawReset = true
		}
		if o.sinceRefit >= refitEvery {
			t.Fatalf("sinceRefit %d exceeded refitEvery %d", o.sinceRefit, refitEvery)
		}
		prev = o.sinceRefit
	}
	if !sawExtend {
		t.Error("incremental extend path never ran")
	}
	if !sawReset {
		t.Error("cadence never forced a full refit")
	}
}
