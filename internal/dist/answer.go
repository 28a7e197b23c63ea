package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"unico/internal/mapsearch"
	"unico/internal/ppa"
)

// This file is the shape of an advance's answer on the wire, the one place
// it is decided: the worker packs it, the client checks and unpacks it, and
// a router relays its bytes untouched.
//
// A job is a pure function of (spec, cumulative budget) and the master
// already holds every point up to the request's Seen, so the answer carries
// only the points after it: each point of a search crosses the wire once,
// however many installments, resends or fail-overs it takes. The points go
// as columns, one array per field, with a point's budget implied by its
// position (a mapsearch.NetworkSearcher appends exactly one point to each
// history per budget unit) and equal neighbours folded into runs — the
// best-so-far History stays constant between improvements, so it is a few
// runs. This is the only serialized form of a ppa.History: no checkpoint or
// flight record stores one.
//
// A 200 answer's body is this little-endian layout, served as
// application/octet-stream; a rejected request's answer is a JSON error.
//
//	u64 from, u64 spent    the request's Seen and Budget
//	4 × f64                best: LatencyMs, PowerMW, AreaMM2, EnergyUJ
//	u8                     feasible: 0 or 1
//	columns history, then columns raw, each:
//	  u32 k                runs
//	  k × u32              run lengths
//	  5 blocks of k × f64  loss, latency, power, area, energy
//
// A float64 goes as its IEEE 754 bits, so every value, a -0 or a NaN
// included, crosses bit for bit. Nothing follows the raw columns.

// answerContentType is the Content-Type of a 200 answer to an advance.
const answerContentType = "application/octet-stream"

// Sizes of the layout's fixed parts.
const (
	answerHeadBytes = 8 + 8 + 4*8 + 1 // from, spent, best, feasible
	runBytes        = 4 + 5*8         // one run's length and its five values
)

// runFields reads a point's five column values, in layout order.
var runFields = [5]func(ppa.Point) float64{
	func(p ppa.Point) float64 { return p.Loss },
	func(p ppa.Point) float64 { return p.M.LatencyMs },
	func(p ppa.Point) float64 { return p.M.PowerMW },
	func(p ppa.Point) float64 { return p.M.AreaMM2 },
	func(p ppa.Point) float64 { return p.M.EnergyUJ },
}

// packAnswer is the worker's answer for a job whose searcher s has been
// brought to the request's budget, to a caller that holds its points up to
// from.
func packAnswer(from int, s mapsearch.Searcher) []byte {
	st := JobState{Spent: s.Spent(), History: s.History()[from:], Raw: s.RawHistory()[from:]}
	if met, ok := s.Best(); ok {
		st.Best, st.Feasible = met, true
	}
	return encodeAnswer(from, st)
}

// encodeAnswer lays out st, whose History and Raw are the points after
// from, in one allocation.
func encodeAnswer(from int, st JobState) []byte {
	hist, raw := runStarts(st.History), runStarts(st.Raw)
	b := make([]byte, 0, answerHeadBytes+2*4+(len(hist)+len(raw))*runBytes)
	b = binary.LittleEndian.AppendUint64(b, uint64(from))
	b = binary.LittleEndian.AppendUint64(b, uint64(st.Spent))
	for _, v := range [4]float64{st.Best.LatencyMs, st.Best.PowerMW, st.Best.AreaMM2, st.Best.EnergyUJ} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	feasible := byte(0)
	if st.Feasible {
		feasible = 1
	}
	b = append(b, feasible)
	b = appendColumns(b, st.History, hist)
	return appendColumns(b, st.Raw, raw)
}

// runStarts returns the index in h where each run of bit-identical
// neighbours begins.
func runStarts(h ppa.History) []int {
	var starts []int
	for i, p := range h {
		if i == 0 || !samePoint(p, h[i-1]) {
			starts = append(starts, i)
		}
	}
	return starts
}

// appendColumns appends h's runs, which begin at starts, as one column set.
func appendColumns(b []byte, h ppa.History, starts []int) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(starts)))
	for i, s := range starts {
		end := len(h)
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(end-s))
	}
	for _, field := range runFields {
		for _, s := range starts {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(field(h[s])))
		}
	}
	return b
}

// samePoint compares two points' values bit for bit, so a run never folds a
// -0 into a 0.
func samePoint(a, b ppa.Point) bool {
	for _, field := range runFields {
		if math.Float64bits(field(a)) != math.Float64bits(field(b)) {
			return false
		}
	}
	return true
}

// errTruncated is the decode error of a body shorter than its layout says.
var errTruncated = errors.New("truncated answer")

// answerReader walks a body front to back; a read past its end sets err and
// yields zeros.
type answerReader struct {
	b   []byte
	err error
}

func (r *answerReader) take(n uint64) []byte {
	if r.err != nil || n > uint64(len(r.b)) {
		r.err = errTruncated
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *answerReader) u32() uint32 {
	if p := r.take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (r *answerReader) u64() uint64 {
	if p := r.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (r *answerReader) f64() float64 { return math.Float64frombits(r.u64()) }

// decodeAnswer checks a 200 answer's body against the request it answers
// and returns the state it describes, holding only the points after
// req.Seen. Every check comes before a point is allocated, and none is
// allocated beyond the Budget − Seen the request asked for, whatever the
// body claims.
func decodeAnswer(body []byte, req AdvanceRequest) (JobState, error) {
	r := answerReader{b: body}
	from, spent := r.u64(), r.u64()
	best := ppa.Metrics{LatencyMs: r.f64(), PowerMW: r.f64(), AreaMM2: r.f64(), EnergyUJ: r.f64()}
	feasible := r.take(1)
	if r.err != nil {
		return JobState{}, r.err
	}
	if from != uint64(req.Seen) || spent != uint64(req.Budget) {
		return JobState{}, fmt.Errorf("answers (%d, %d] for the asked (%d, %d]", from, spent, req.Seen, req.Budget)
	}
	if feasible[0] > 1 {
		return JobState{}, fmt.Errorf("feasible byte %d", feasible[0])
	}
	n := req.Budget - req.Seen
	hist, err := r.points(req.Seen, n)
	if err != nil {
		return JobState{}, fmt.Errorf("history: %w", err)
	}
	raw, err := r.points(req.Seen, n)
	if err != nil {
		return JobState{}, fmt.Errorf("raw: %w", err)
	}
	if len(r.b) != 0 {
		return JobState{}, fmt.Errorf("%d bytes after the raw columns", len(r.b))
	}
	return JobState{Spent: req.Budget, History: hist, Raw: raw, Best: best, Feasible: feasible[0] == 1}, nil
}

// points reads one column set and expands it into the n points after
// budget from; unless it holds exactly n points in well-formed runs it is
// an error, and allocates nothing.
func (r *answerReader) points(from, n int) (ppa.History, error) {
	k := uint64(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	if k > uint64(n) {
		return nil, fmt.Errorf("%d runs for the %d points asked for", k, n)
	}
	runs, cols := r.take(4*k), r.take(runBytes*k-4*k)
	if r.err != nil {
		return nil, r.err
	}
	total := 0
	for i := range k {
		run := int(binary.LittleEndian.Uint32(runs[4*i:]))
		if run < 1 {
			return nil, fmt.Errorf("run of %d", run)
		}
		if run > n-total {
			return nil, fmt.Errorf("more than the %d points asked for", n)
		}
		total += run
	}
	if total != n {
		return nil, fmt.Errorf("%d points, asked for %d", total, n)
	}
	if n == 0 {
		return nil, nil
	}
	value := func(field, i uint64) float64 {
		return math.Float64frombits(binary.LittleEndian.Uint64(cols[8*(field*k+i):]))
	}
	h := make(ppa.History, 0, n)
	for i := range k {
		p := ppa.Point{Loss: value(0, i), M: ppa.Metrics{
			LatencyMs: value(1, i), PowerMW: value(2, i), AreaMM2: value(3, i), EnergyUJ: value(4, i),
		}}
		for range binary.LittleEndian.Uint32(runs[4*i:]) {
			p.Budget = from + len(h) + 1
			h = append(h, p)
		}
	}
	return h, nil
}
