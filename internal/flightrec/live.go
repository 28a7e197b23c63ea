package flightrec

import "sync"

// Live is the in-memory flight record of the current run, feeding the
// `/debug/unico` dashboard while a search executes. It implements Sink (the
// write side, driven by the co-optimizer) and Snapshot (the read side,
// driven by the dashboard handler); both are safe to call concurrently.
//
// StartRun resets the store, so one Live follows a whole process through a
// sequence of runs (cmd/experiments), always showing the run in flight.
type Live struct {
	mu   sync.RWMutex
	data RunData
}

// NewLive returns an empty live store.
func NewLive() *Live { return &Live{} }

// StartRun begins a new run: the header is recorded and any previous run's
// records are dropped. A resumed run passes the already-completed iterations
// its durable artifact kept, so the dashboard shows the whole history, not
// just the resumed suffix.
func (l *Live) StartRun(hdr Header, kept ...Iteration) {
	hdr.Type = TypeHeader
	l.mu.Lock()
	l.data = RunData{Header: hdr, Iters: append([]Iteration(nil), kept...)}
	l.mu.Unlock()
}

// RecordIteration appends one iteration record (implements Sink).
func (l *Live) RecordIteration(it Iteration) {
	it.Type = TypeIteration
	l.mu.Lock()
	// A replayed or re-run iteration (resume races, defensive) replaces any
	// record with the same or later index rather than duplicating it.
	for len(l.data.Iters) > 0 && l.data.Iters[len(l.data.Iters)-1].Iter >= it.Iter {
		l.data.Iters = l.data.Iters[:len(l.data.Iters)-1]
	}
	l.data.Iters = append(l.data.Iters, it)
	l.data.Summary = nil
	l.mu.Unlock()
}

// FinishRun records the run's summary.
func (l *Live) FinishRun(s Summary) {
	s.Type = TypeSummary
	l.mu.Lock()
	l.data.Summary = &s
	l.mu.Unlock()
}

// Snapshot returns a copy of the current run data, safe to render while the
// search keeps appending.
func (l *Live) Snapshot() RunData {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := RunData{Header: l.data.Header}
	out.Iters = append([]Iteration(nil), l.data.Iters...)
	if l.data.Summary != nil {
		s := *l.data.Summary
		out.Summary = &s
	}
	return out
}
