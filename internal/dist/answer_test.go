package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"

	"unico/internal/mapsearch"
	"unico/internal/ppa"
)

// answerHistory is a history with every shape packing has to keep apart:
// a penalty plateau, equal losses with different metrics, a -0 next to a 0,
// and repeats.
func answerHistory() ppa.History {
	m := ppa.Metrics{LatencyMs: 2, PowerMW: 3, AreaMM2: 4, EnergyUJ: 6}
	negZero := m
	negZero.LatencyMs = math.Copysign(0, -1)
	zero := m
	zero.LatencyMs = 0
	pts := []ppa.Point{
		{Loss: 1e100}, {Loss: 1e100}, {Loss: 12, M: m}, {Loss: 12, M: m},
		{Loss: 12, M: ppa.Metrics{LatencyMs: 3, PowerMW: 2, AreaMM2: 4, EnergyUJ: 6}},
		{Loss: 5, M: zero}, {Loss: 5, M: negZero}, {Loss: 5, M: negZero}, {Loss: 0.1 + 0.2, M: m},
	}
	for i := range pts {
		pts[i].Budget = i + 1
	}
	return pts
}

// TestAnswerCarriesThePointsBitForBit: packing the points in (from, to] and
// unpacking them against the request gives back exactly those points, bit
// for bit and with their budgets, and folds only identical neighbours; the
// tally crosses whole, every bit of both words.
func TestAnswerCarriesThePointsBitForBit(t *testing.T) {
	h := answerHistory()
	best := ppa.Metrics{LatencyMs: math.Copysign(0, -1), PowerMW: math.Inf(1), AreaMM2: 0.1 + 0.2, EnergyUJ: 7}
	for from := 0; from <= len(h); from++ {
		for to := from; to <= len(h); to++ {
			tally := mapsearch.Tally{Calls: 1<<63 | uint64(to), Infeasible: math.MaxUint64 - uint64(from)}
			sent := JobState{Spent: to, History: h[from:to], Raw: h[from:to], Best: best, Feasible: to%2 == 0, Tally: tally}
			st, err := decodeAnswer(encodeAnswer(from, sent), AdvanceRequest{Seen: from, Budget: to})
			if err != nil {
				t.Fatalf("(%d, %d]: %v", from, to, err)
			}
			want := h[from:to]
			if to == from {
				want = nil
			}
			if len(st.History) != len(want) || st.Spent != to || st.Feasible != sent.Feasible || st.Tally != tally {
				t.Fatalf("(%d, %d]: %d points at %d, feasible %v, tally %+v", from, to, len(st.History), st.Spent, st.Feasible, st.Tally)
			}
			if math.Float64bits(st.Best.LatencyMs) != math.Float64bits(best.LatencyMs) || st.Best.PowerMW != best.PowerMW ||
				st.Best.AreaMM2 != best.AreaMM2 || st.Best.EnergyUJ != best.EnergyUJ {
				t.Fatalf("(%d, %d]: best %+v, want %+v", from, to, st.Best, best)
			}
			for i := range want {
				if st.History[i].Budget != want[i].Budget || !samePoint(st.History[i], want[i]) {
					t.Fatalf("(%d, %d]: point %d is %+v, want %+v", from, to, i, st.History[i], want[i])
				}
			}
			if !reflect.DeepEqual(st.Raw, st.History) {
				t.Fatalf("(%d, %d]: raw and history unpack differently", from, to)
			}
		}
	}
	if starts := runStarts(h); !reflect.DeepEqual(starts, []int{0, 2, 4, 5, 6, 8}) {
		t.Errorf("runs start at %v: only bit-identical neighbours fold", starts)
	}
}

// answerBody lays out an answer by hand: the given from, spent and
// feasible byte, then two column sets of the given runs whose every column
// holds values, then a tally of 7 calls and 3 rejections.
func answerBody(from, spent uint64, feasible byte, runs []uint32, values []float64) []byte {
	le := binary.LittleEndian
	b := le.AppendUint64(nil, from)
	b = le.AppendUint64(b, spent)
	for range 4 {
		b = le.AppendUint64(b, math.Float64bits(1))
	}
	b = append(b, feasible)
	for range 2 {
		b = le.AppendUint32(b, uint32(len(runs)))
		for _, r := range runs {
			b = le.AppendUint32(b, r)
		}
		for range 5 {
			for _, v := range values {
				b = le.AppendUint64(b, math.Float64bits(v))
			}
		}
	}
	b = le.AppendUint64(b, 7)
	return le.AppendUint64(b, 3)
}

// cut returns b without the n bytes at offset at.
func cut(b []byte, at, n int) []byte {
	return append(append([]byte(nil), b[:at]...), b[at+n:]...)
}

// TestAnswerRejected: an answer that is not exactly the points asked for is
// an error — from or spent not the request's, a column short, a run shorter
// than 1, too few or too many points, a tally short or missing, a body cut
// short or run on — and one claiming a billion points in a few bytes
// allocates none of them.
func TestAnswerRejected(t *testing.T) {
	req := AdvanceRequest{Seen: 2, Budget: 5}
	good := answerBody(2, 5, 1, []uint32{1, 2}, []float64{1, 2})
	if st, err := decodeAnswer(good, req); err != nil || st.Tally != (mapsearch.Tally{Calls: 7, Infeasible: 3}) {
		t.Fatalf("a well-formed answer decoded to tally %+v, %v", st.Tally, err)
	}
	// The first column set starts after the head; its power column after
	// its count, two runs and two columns of two values.
	power := answerHeadBytes + 4 + 2*4 + 2*2*8
	for name, body := range map[string][]byte{
		"from not seen":    answerBody(0, 5, 1, []uint32{5}, []float64{1}),
		"from past budget": answerBody(1<<63, 5, 1, []uint32{1}, []float64{1}),
		"spent not budget": answerBody(2, 6, 1, []uint32{4}, []float64{1}),
		"feasible byte":    answerBody(2, 5, 2, []uint32{3}, []float64{1}),
		"ragged":           cut(good, power, 8),
		"empty run":        answerBody(2, 5, 1, []uint32{0, 3}, []float64{1, 2}),
		"short":            answerBody(2, 5, 1, []uint32{1, 1}, []float64{1, 2}),
		"long":             answerBody(2, 5, 1, []uint32{2, 2}, []float64{1, 2}),
		"huge run":         answerBody(2, 5, 1, []uint32{1_000_000_000}, []float64{1}),
		"overflowing runs": answerBody(2, 5, 1, []uint32{math.MaxUint32, math.MaxUint32}, []float64{1, 2}),
		"more runs":        answerBody(2, 5, 1, []uint32{1, 1, 1, 1}, []float64{1, 2, 3, 4}),
		"truncated":        good[:len(good)-1],
		"half a tally":     good[:len(good)-8],
		"no tally":         good[:len(good)-16],
		"a third word":     append(append([]byte(nil), good...), make([]byte, 8)...),
		"trailing":         append(append([]byte(nil), good...), 0),
		"json":             []byte(`{"from":2,"spent":5,"feasible":true}`),
		"empty":            nil,
	} {
		if st, err := decodeAnswer(body, req); err == nil || !reflect.DeepEqual(st, JobState{}) {
			t.Errorf("%s: decoded to %+v, %v; want an error and nothing", name, st, err)
		}
	}

	// A run count the body cannot hold is refused before its runs are read.
	huge := answerBody(0, 40, 1, []uint32{1}, []float64{1})
	binary.LittleEndian.PutUint32(huge[answerHeadBytes:], 1_000_000_000)
	for name, body := range map[string][]byte{"billion-point run": answerBody(0, 40, 1, []uint32{1_000_000_000}, []float64{1}), "billion runs": huge} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeAnswer(body, AdvanceRequest{Budget: 40})
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s in a 40-point answer was accepted", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("%s: decoding a %d-byte answer allocated %d bytes", name, len(body), grew)
		}
	}
}

// FuzzAdvanceAnswer throws arbitrary answer bodies at the client's decode of
// an advance: no panic, and an answer it accepts carries exactly the points
// in (Seen, Budget], each with its budget.
func FuzzAdvanceAnswer(f *testing.F) {
	good := answerBody(2, 5, 1, []uint32{1, 2}, []float64{1, 2})
	f.Add(2, 5, good)
	f.Add(2, 5, encodeAnswer(2, JobState{Spent: 5, History: answerHistory()[2:5], Raw: answerHistory()[2:5],
		Tally: mapsearch.Tally{Calls: math.MaxUint64, Infeasible: 1}}))
	f.Add(2, 5, good[:len(good)-3])
	f.Add(2, 5, good[:len(good)-16])
	f.Add(2, 5, cut(good, answerHeadBytes+4+2*4+2*2*8, 8))
	f.Add(0, 40, answerBody(0, 40, 1, []uint32{1_000_000_000}, []float64{1}))
	claims := answerBody(0, 40, 1, []uint32{40}, []float64{1})
	binary.LittleEndian.PutUint32(claims[answerHeadBytes:], 30) // 30 runs in a body holding one
	f.Add(0, 40, claims)
	f.Add(2, 5, append(append([]byte(nil), good...), 1, 2, 3))
	f.Add(0, 5, []byte(`{"spent":5,"history":[{"Budget":1,"Loss":1,"M":{}}],"feasible":true}`))
	f.Fuzz(func(t *testing.T, seen, budget int, body []byte) {
		if seen < 0 || seen > budget || budget > 1000 {
			t.Skip("the master asks for 0 <= seen <= budget")
		}
		req := AdvanceRequest{Seen: seen, Budget: budget}
		st, err := decodeAnswer(body, req)
		if err != nil {
			return
		}
		for _, h := range []ppa.History{st.History, st.Raw} {
			if len(h) != budget-seen {
				t.Fatalf("accepted %d points for (%d, %d]", len(h), seen, budget)
			}
			for i, p := range h {
				if p.Budget != seen+i+1 {
					t.Fatalf("point %d of (%d, %d] has budget %d", i, seen, budget, p.Budget)
				}
			}
		}
	})
}

// TestAdvanceRejectsSeenOutsideBudget: Seen indexes the job's history, so a
// worker answers one below 0 or above Budget with a 400 and holds no job.
func TestAdvanceRejectsSeenOutsideBudget(t *testing.T) {
	for _, tc := range []struct {
		seen, budget int
		want         int
	}{
		{-1, 2, http.StatusBadRequest},
		{3, 2, http.StatusBadRequest},
		{1, 0, http.StatusBadRequest},
		{0, 1, http.StatusOK},
		{1, 1, http.StatusOK},
	} {
		s := NewServer()
		body, err := json.Marshal(AdvanceRequest{Spec: testSpec(1), Budget: tc.budget, Seen: tc.seen})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs/advance", bytes.NewReader(body)))
		held := 0
		if tc.want == http.StatusOK {
			held = 1
		}
		if rec.Code != tc.want || s.JobCount() != held {
			t.Errorf("seen %d, budget %d: answered %d holding %d jobs, want %d holding %d",
				tc.seen, tc.budget, rec.Code, s.JobCount(), tc.want, held)
		}
	}
}
