package mobo

import (
	"encoding/json"
	"math"
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

// TestExportRestoreBitIdentical is the package-level half of the resume
// guarantee: an optimizer restored from an exported State suggests exactly
// the same future batches as the original would have.
func TestExportRestoreBitIdentical(t *testing.T) {
	const nObj, batch = 3, 8
	cfg := DefaultConfig(nObj)

	ref := New(testSpace(), cfg, 42)
	drive(ref, 3, batch, nObj)
	tail := drive(ref, 3, batch, nObj)

	cut := New(testSpace(), cfg, 42)
	drive(cut, 3, batch, nObj)
	st := cut.Export()

	// Round-trip the state through JSON, as the checkpoint file does.
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatalf("marshal state: %v", err)
	}
	var back State
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal state: %v", err)
	}
	restored, err := Restore(testSpace(), cfg, back)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if restored.RNGPos() != cut.RNGPos() {
		t.Fatalf("RNG position %d, want %d", restored.RNGPos(), cut.RNGPos())
	}
	if restored.TrainSize() != cut.TrainSize() {
		t.Fatalf("train size %d, want %d", restored.TrainSize(), cut.TrainSize())
	}
	got := drive(restored, 3, batch, nObj)
	if !reflect.DeepEqual(got, tail) {
		t.Fatalf("restored optimizer diverged from original:\n got %v\nwant %v", got, tail)
	}
}

// TestExportBeforeFirstUpdate pins that the +Inf v_best/UUL of a fresh
// optimizer survive the JSON round trip.
func TestExportBeforeFirstUpdate(t *testing.T) {
	o := New(testSpace(), DefaultConfig(3), 1)
	st := o.Export()
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatalf("marshal fresh state: %v", err)
	}
	var back State
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal fresh state: %v", err)
	}
	if !math.IsInf(float64(back.VBest), 1) || !math.IsInf(float64(back.UUL), 1) {
		t.Fatalf("Inf fields did not round-trip: vBest=%v uul=%v", back.VBest, back.UUL)
	}
	if _, err := Restore(testSpace(), DefaultConfig(3), back); err != nil {
		t.Fatalf("restore fresh state: %v", err)
	}
}

// TestRestoreRejectsObjectiveMismatch guards against resuming a run with a
// different objective count (e.g. robustness toggled between runs).
func TestRestoreRejectsObjectiveMismatch(t *testing.T) {
	o := New(testSpace(), DefaultConfig(4), 1)
	drive(o, 1, 4, 4)
	st := o.Export()
	if _, err := Restore(testSpace(), DefaultConfig(3), st); err == nil {
		t.Fatal("restore with mismatched objective count succeeded")
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
// bit-identical suggestions, updates and RNG positions.
func TestSuggestBatchIdenticalAcrossWorkers(t *testing.T) {
	const nObj, batch = 3, 8
	run := func(workers int) ([][][]float64, uint64) {
		cfg := DefaultConfig(nObj)
		cfg.SearchWorkers = workers
		o := New(testSpace(), cfg, 99)
		got := drive(o, 6, batch, nObj)
		return got, o.RNGPos()
	}
	want, wantPos := run(1)
	for _, workers := range []int{2, 8, 32} {
		got, pos := run(workers)
		if pos != wantPos {
			t.Fatalf("workers=%d: RNG position %d, serial %d", workers, pos, wantPos)
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

// fuzzRestoreCap keeps FuzzRestore on the decoder: a state that decodes to
// more observations than this (a surrogate rebuild is cubic in the training
// points), or to an RNG position further than 2^20 draws out, is skipped, not
// run.
const fuzzRestoreCap = 16

// FuzzRestore feeds arbitrary bytes, decoded as the checkpoint decodes them,
// to Restore: it must not panic, and an optimizer it does return stands where
// the state says — same training set, same RNG position — and exports a state
// a second Restore accepts.
func FuzzRestore(f *testing.F) {
	const nObj = 3
	cfg := DefaultConfig(nObj)
	warm := New(testSpace(), cfg, 7)
	drive(warm, 2, 6, nObj)
	for _, o := range []*Optimizer{New(testSpace(), cfg, 1), warm} {
		raw, err := json.Marshal(o.Export())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"seed":1,"train":[{"X":[0.5],"Y":[1,2,3]}],"all":[{"X":[],"Y":[1,2,3]}]}`))
	f.Add([]byte(`{"seed":1,"train":[{"X":[0.1,0.2,0.3,0.4,0.5,0.6],"Y":[1,2,3]}],"surrogates":[{"lengthscale":0},{"variance":-1},{"noise":1e308}]}`))
	f.Add([]byte(`{"seed":1,"rng_pos":18446744073709551615,"d_set":[null]}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var st State
		if json.Unmarshal(raw, &st) != nil || len(st.Train) > fuzzRestoreCap || len(st.All) > fuzzRestoreCap || st.RNGPos > 1<<20 {
			t.Skip()
		}
		o, err := Restore(testSpace(), cfg, st)
		if err != nil {
			return
		}
		if o.TrainSize() != len(st.Train) || o.RNGPos() != st.RNGPos {
			t.Fatalf("restored at train=%d rng=%d, state says %d and %d", o.TrainSize(), o.RNGPos(), len(st.Train), st.RNGPos)
		}
		if _, err := Restore(testSpace(), cfg, o.Export()); err != nil {
			t.Fatalf("Restore refuses what the restored optimizer exports: %v", err)
		}
	})
}
