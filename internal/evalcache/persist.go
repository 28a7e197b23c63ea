package evalcache

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"unico/internal/camodel"
	"unico/internal/durable"
	"unico/internal/maestro"
	"unico/internal/ppa"
	"unico/internal/telemetry"
)

// record is the JSONL wire form of one cache entry. Successful evaluations
// carry metrics; deterministic failures carry the error text and an
// infeasibility flag so the sentinel survives the round trip.
type record struct {
	Key        string       `json:"k"`
	Engine     string       `json:"e,omitempty"`
	Metrics    *ppa.Metrics `json:"m,omitempty"`
	Infeasible bool         `json:"inf,omitempty"`
	Error      string       `json:"err,omitempty"`
}

// cachedError is an evaluation error reloaded from disk: it reproduces the
// original error text and, for infeasible mappings, unwraps to the engine's
// ErrInfeasible sentinel so errors.Is keeps working across a restart.
type cachedError struct {
	msg      string
	sentinel error
}

func (e *cachedError) Error() string { return e.msg }

// Unwrap exposes the infeasibility sentinel (nil for non-infeasible errors).
func (e *cachedError) Unwrap() error { return e.sentinel }

// sentinelFor maps an engine name to its infeasibility sentinel.
func sentinelFor(engine string) error {
	switch engine {
	case EngineMaestro:
		return maestro.ErrInfeasible
	case EngineCAModel:
		return camodel.ErrInfeasible
	}
	return nil
}

// WriteJSONL writes every stored entry as one JSON object per line, least
// recently used first (so reloading into a smaller cache keeps the hottest
// entries).
func (c *Cache) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range c.snapshot() {
		rec := record{Key: e.key.String(), Engine: e.engine}
		if e.err != nil {
			rec.Error = e.err.Error()
			rec.Infeasible = errors.Is(e.err, maestro.ErrInfeasible) ||
				errors.Is(e.err, camodel.ErrInfeasible)
		} else {
			m := e.met
			rec.Metrics = &m
		}
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("evalcache: write entry: %w", err)
		}
	}
	return bw.Flush()
}

// ReadJSONL loads entries from one-JSON-object-per-line input, returning how
// many were stored. Malformed and over-long lines are skipped and counted in
// telemetry (a truncated final line from an interrupted save must not poison
// the warm start); a read error aborts.
func (c *Cache) ReadJSONL(r io.Reader) (int, error) {
	n := 0
	skipped, err := durable.ReadLines(r, func(line []byte) error {
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil {
			return durable.ErrSkip
		}
		key, ok := parseKey(rec.Key)
		if !ok {
			return durable.ErrSkip
		}
		e := &entry{key: key, engine: rec.Engine}
		switch {
		case rec.Error != "":
			ce := &cachedError{msg: rec.Error}
			if rec.Infeasible {
				ce.sentinel = sentinelFor(rec.Engine)
			}
			e.err = ce
		case rec.Metrics != nil:
			e.met = *rec.Metrics
		default:
			return durable.ErrSkip
		}
		c.put(e)
		n++
		return nil
	})
	telemetry.EvalCacheSkippedLines().Add(uint64(skipped))
	if err != nil {
		return n, fmt.Errorf("evalcache: read: %w", err)
	}
	return n, nil
}

// LoadFile warm-starts the cache from a JSONL file written by SaveFile,
// returning how many entries were loaded. A missing file is not an error —
// the first run of a fresh experiment starts cold.
func (c *Cache) LoadFile(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, nil
		}
		return 0, fmt.Errorf("evalcache: open %s: %w", path, err)
	}
	defer f.Close()
	return c.ReadJSONL(f)
}

// SaveFile persists the cache to path as JSONL through durable.WriteFile
// (tmp, fsync, rename), so a crash mid-save never truncates an existing
// warm-start file and the renamed data is actually on disk when SaveFile
// returns.
func (c *Cache) SaveFile(path string) error { return c.saveFile(durable.OS{}, path) }

func (c *Cache) saveFile(fsys durable.FS, path string) error {
	return durable.WriteFile(fsys, path, c.WriteJSONL) // the error names the operation and the path
}
