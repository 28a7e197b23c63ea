package durable_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"unico/internal/checkpoint"
	"unico/internal/core"
	"unico/internal/disttrace"
	"unico/internal/evalcache"
	"unico/internal/flightrec"
	"unico/internal/telemetry"
)

// TestParentWrittenArtifactsLoad is the byte-compatibility check of the
// port onto this package: testdata/parent holds one artifact of each kind
// written by the hand-rolled writers of the commit before it — a snapshot
// plus a journal whose last frame is torn, a killed run's flight record, a
// span log with a torn last event, a cache file — and expected.json holds
// what that commit's own loaders read back from them. The ported loaders
// must read the same records with the same torn and skipped counts.
func TestParentWrittenArtifactsLoad(t *testing.T) {
	var want struct {
		Checkpoint struct {
			SnapshotIter int                    `json:"snapshot_iter"`
			Tail         []core.IterationRecord `json:"tail"`
			Torn         uint64                 `json:"torn"`
		} `json:"checkpoint"`
		Flight struct {
			Data    *flightrec.RunData `json:"data"`
			Skipped int                `json:"skipped"`
		} `json:"flight"`
		Spans struct {
			Events  []disttrace.Event `json:"events"`
			Skipped int               `json:"skipped"`
		} `json:"spans"`
		Cache struct {
			Loaded  int    `json:"loaded"`
			Skipped uint64 `json:"skipped"`
		} `json:"cache"`
	}
	src := filepath.Join("testdata", "parent")
	raw, err := os.ReadFile(filepath.Join(src, "expected.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	// Loading truncates the torn journal tail in place: work on copies.
	dir := t.TempDir()
	for _, name := range []string{"parent.ckpt", "parent.ckpt.journal", "parent.flight.jsonl", "parent.spans.jsonl", "parent.cache.jsonl"} {
		b, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	rs, err := checkpoint.Load(filepath.Join(dir, "parent.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Snapshot.Iter != want.Checkpoint.SnapshotIter || !reflect.DeepEqual(rs.Tail, want.Checkpoint.Tail) {
		t.Errorf("checkpoint: snapshot %d + tail %+v, want %d + %+v", rs.Snapshot.Iter, rs.Tail, want.Checkpoint.SnapshotIter, want.Checkpoint.Tail)
	}
	if got := uint64(rs.TornRecords); got != want.Checkpoint.Torn {
		t.Errorf("checkpoint: %d torn records counted, want %d", got, want.Checkpoint.Torn)
	}

	flight, skipped, err := flightrec.Load(filepath.Join(dir, "parent.flight.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(flight, want.Flight.Data) || skipped != want.Flight.Skipped {
		t.Errorf("flight record: %+v (%d skipped), want %+v (%d skipped)", flight, skipped, want.Flight.Data, want.Flight.Skipped)
	}
	// And the killed run resumes into an artifact that still loads whole.
	rec, err := flightrec.Resume(filepath.Join(dir, "parent.flight.jsonl"), flight.Header, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Finish(flightrec.Summary{}); err != nil {
		t.Fatal(err)
	}
	if resumed, skipped, err := flightrec.Load(filepath.Join(dir, "parent.flight.jsonl")); err != nil || skipped != 0 ||
		len(resumed.Iters) != 2 || resumed.Summary == nil {
		t.Errorf("resumed flight record: %+v (%d skipped, %v)", resumed, skipped, err)
	}

	events, skipped, err := disttrace.LoadFiles(filepath.Join(dir, "parent.spans.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events, want.Spans.Events) || skipped != want.Spans.Skipped {
		t.Errorf("span log: %d events (%d skipped), want %d (%d skipped)", len(events), skipped, len(want.Spans.Events), want.Spans.Skipped)
	}

	skippedLines := telemetry.EvalCacheSkippedLines().Value()
	loaded, err := evalcache.New(0).LoadFile(filepath.Join(dir, "parent.cache.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if got := telemetry.EvalCacheSkippedLines().Value() - skippedLines; loaded != want.Cache.Loaded || got != want.Cache.Skipped {
		t.Errorf("cache file: %d entries (%d skipped), want %d (%d skipped)", loaded, got, want.Cache.Loaded, want.Cache.Skipped)
	}
}
