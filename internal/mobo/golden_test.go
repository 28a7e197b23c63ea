package mobo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"unico/internal/hw"
)

// suggestGolden is the SHA-256, per optimizer seed, of the first five
// model-guided batches on the Edge spatial space with four objectives (see
// suggestDigest). The digests were captured on the commit before
// acquisition scoring moved to tiles (per-candidate, per-objective
// gp.Predict), so they pin the tiled path against the old one rather than
// against itself.
var suggestGolden = map[int64]string{
	1: "7822d2b26895058ecbc73d704c49786e24fe4927090988252032a739aee21a60",
	2: "61709836d320411c77c50efa2100a28ae5e5a064fa43a4e15b59e580b35ba417",
	3: "5bd1b34fa448acb73ab05889b01d80a91cfb7e72b12a954ce22b0e89ace92729",
}

// paperGolden is suggestGolden at the paper's size (see paperRun): the
// default 256-candidate pool, batches of 30 and a 150-point window. The
// digests were captured on the commit before the acquisition solves learned
// to stop early, so they pin the stopping solves against whole ones on
// training sets that cross many solve blocks.
var paperGolden = map[int64]string{
	1: "a98cb0b73e19ed618921ff9f0d4b53c2b50099b2df2abd549dbe9a8dff52b335",
	2: "b9b534ab3b2b3944e28add80e6e74fe721ecae8640240f79153aca8b6b120e1c",
	3: "eb2fed3b4cbd27da4500a57324d8609ed04fa1f7376f2ee4099bd43083dc2404",
}

// digestRun is the shape of a SuggestBatch digest: the batch size, the
// surrogate window and how many batches run, the first one random.
type digestRun struct {
	batch, maxTrain, rounds int
}

var (
	// smallRun crosses every refit regime at a small size: incremental
	// extends first, eviction-forced full refits at the end.
	smallRun = digestRun{batch: 12, maxTrain: 48, rounds: 6}
	// paperRun is edge_paper's acquisition: the window fills and then
	// evicts in each of the last batches.
	paperRun = digestRun{batch: 30, maxTrain: 150, rounds: 8}
)

// suggestDigest drives one random warm-up batch and then the model-guided
// batches of run against the synthetic objective with four objectives and
// hashes every coordinate of the guided batches. It also reports how many
// updates evicted training points.
func suggestDigest(seed int64, workers int, run digestRun) (digest string, evictions int) {
	const nObj = 4
	cfg := DefaultConfig(nObj)
	cfg.MaxTrain = run.maxTrain
	cfg.SearchWorkers = workers
	o := New(hw.NewSpatialSpace(hw.Edge), cfg, seed)
	h := sha256.New()
	var buf [8]byte
	for round := 0; round < run.rounds; round++ {
		xs := o.SuggestBatch(run.batch)
		obs := make([]Observation, len(xs))
		for i, x := range xs {
			obs[i] = Observation{X: x, Y: synthObjectives(x, nObj)}
			if round == 0 {
				continue
			}
			for _, v := range x {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
		before := o.TrainSize()
		if before+o.Update(obs) > o.TrainSize() {
			evictions++
		}
	}
	return hex.EncodeToString(h.Sum(nil)), evictions
}

// checkGolden requires the frozen digests of run at every worker count, and
// at least minEvictions evicting updates in every run.
func checkGolden(t *testing.T, golden map[int64]string, run digestRun, minEvictions int) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skip("digests captured on amd64; other architectures may fuse multiply-adds")
	}
	for seed, want := range golden {
		for _, workers := range []int{1, 2, 8} {
			got, evictions := suggestDigest(seed, workers, run)
			if got != want {
				t.Errorf("seed %d workers %d: digest %s, want %s", seed, workers, got, want)
			}
			if evictions < minEvictions {
				t.Errorf("seed %d workers %d: %d updates evicted, want at least %d", seed, workers, evictions, minEvictions)
			}
		}
	}
}

// TestSuggestBatchGolden requires the frozen small-size digests.
func TestSuggestBatchGolden(t *testing.T) { checkGolden(t, suggestGolden, smallRun, 1) }

// TestSuggestBatchPaperGolden requires the frozen paper-size digests.
func TestSuggestBatchPaperGolden(t *testing.T) { checkGolden(t, paperGolden, paperRun, 3) }
