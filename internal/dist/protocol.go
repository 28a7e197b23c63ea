// Package dist implements the scalable, parallel deployment of paper
// Section 3.5 (Fig. 6): a standalone PPA-estimation REST service, a
// mapping-search job service that worker ("slave") machines expose, and a
// RemotePlatform that lets the master's co-optimizer fan software-mapping
// jobs out across a pool of workers over HTTP.
//
// The wire protocol is JSON over net/http, except for the one body that
// carries search points: a 200 answer to an advance is a fixed little-endian
// byte layout (answer.go). A mapping-search job is a
// pure function of its spec and the cumulative budget spent on it, and the
// protocol says exactly that: an advance names the spec and the budget to
// reach, and whichever worker receives it holds the job from then on —
// building it first when it has none. Nothing is created, no handle is
// minted, and every request can be sent again (to the same worker or
// another) without changing any result. The master raises the target in
// the same installments the local successive-halving scheduler uses, so
// early-stopped candidates never waste worker time, and each answer carries
// only the search points the master has not yet seen (answer.go).
package dist

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"

	"unico/internal/hw"
	"unico/internal/mapping"
	"unico/internal/ppa"
	"unico/internal/workload"
)

// PPARequest asks the PPA service to evaluate one
// (hardware, mapping, layer) triple on the named platform.
type PPARequest struct {
	// Platform is "spatial" or "ascend".
	Platform string `json:"platform"`
	// SpatialHW and SpatialMapping are set when Platform is "spatial".
	SpatialHW      *hw.Spatial      `json:"spatial_hw,omitempty"`
	SpatialMapping *mapping.Spatial `json:"spatial_mapping,omitempty"`
	// AscendHW and AscendMapping are set when Platform is "ascend".
	AscendHW      *hw.Ascend      `json:"ascend_hw,omitempty"`
	AscendMapping *mapping.Ascend `json:"ascend_mapping,omitempty"`
	Layer         workload.Layer  `json:"layer"`
}

// PPAResponse returns the metrics or the infeasibility reason.
type PPAResponse struct {
	Metrics    ppa.Metrics `json:"metrics"`
	Infeasible bool        `json:"infeasible,omitempty"`
	Error      string      `json:"error,omitempty"`
}

// JobSpec describes a network-level mapping-search job.
type JobSpec struct {
	// Platform is "spatial" or "ascend".
	Platform string `json:"platform"`
	// Scenario is "edge" or "cloud" (spatial platform only).
	Scenario string `json:"scenario,omitempty"`
	// Networks names the workloads (zoo names) under co-optimization.
	Networks []string `json:"networks"`
	// X is the encoded hardware configuration.
	X []float64 `json:"x"`
	// Algo names the platform's one mapping searcher, "flextensor" on
	// "spatial" and "depthfirst" on "ascend", or is empty; a worker refuses
	// any other value. It stays in the key, so keys and ring placement are
	// what they were: a spec that names the searcher and one that leaves
	// it empty are two jobs with equal answers.
	Algo string `json:"algo"`
	// Seed makes the job deterministic.
	Seed int64 `json:"seed"`
}

// Key is the job's identity on every hop: the SHA-256 of the spec's fields
// in a fixed rendering (so a client's JSON whitespace or key order cannot
// split one job in two), the bytes fmt's "%q %q %q %v %q %d" prints for
// Platform, Scenario, Networks, X, Algo and Seed: quoted strings, the
// networks and coordinates in brackets with spaces between, each float the
// shortest decimal that round-trips it. Workers index their live searchers
// by it, routers hash it onto the ring, and release names it, so the
// rendering never changes (FuzzJobSpecKey holds it to fmt's).
func (s JobSpec) Key() string {
	var buf [256]byte
	b := strconv.AppendQuote(buf[:0], s.Platform)
	b = append(b, ' ')
	b = strconv.AppendQuote(b, s.Scenario)
	b = append(b, " ["...)
	for i, n := range s.Networks {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendQuote(b, n)
	}
	b = append(b, "] ["...)
	for i, v := range s.X {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	b = append(b, "] "...)
	b = strconv.AppendQuote(b, s.Algo)
	b = append(b, ' ')
	b = strconv.AppendInt(b, s.Seed, 10)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// HealthResponse is the /v1/healthz body. Status is "ok" or "draining"; a
// draining worker still answers health probes and finishes the jobs it
// holds but refuses new work, so routers stop hashing new work to it
// instead of counting it dead.
type HealthResponse struct {
	Status string `json:"status"`
	Jobs   int    `json:"jobs"`
}

// StatusOK and StatusDraining are the HealthResponse.Status values.
const (
	StatusOK       = "ok"
	StatusDraining = "draining"
)

// MaxBodyBytes bounds every body read off the wire — the requests workers and
// routers decode, and the responses every exchange reads; far above any
// legitimate PPA request, job spec or job state. A longer one is an error.
const MaxBodyBytes = 4 << 20

// ReleaseRequest names jobs, by JobSpec.Key, whose state a worker may drop:
// it deletes whichever of them it holds, and a router passes the batch to
// every shard that is not down.
type ReleaseRequest struct {
	IDs []string `json:"ids"`
}

// ReleaseResponse answers a release with how many of the named jobs were
// held (summed over the shards behind a router); a rejected request carries
// only Error.
type ReleaseResponse struct {
	Released int    `json:"released"`
	Error    string `json:"error,omitempty"`
}

// AdvanceRequest brings the job Spec describes to a cumulative Budget and
// asks for its state there. A worker holding the job at or below Budget
// spends the difference; one that holds none (first contact, a restart, a
// fail-over from a lost worker) or holds it already past Budget (an earlier
// installment sent again, a second master behind the first) builds it from
// the spec and spends all of Budget.
type AdvanceRequest struct {
	Spec JobSpec `json:"spec"`
	// Budget is the cumulative target, not an installment.
	Budget int `json:"budget"`
	// Seen is the cumulative budget up to which the caller already holds
	// this job's points: the answer carries only the points after it
	// (answer.go), so 0 <= Seen <= Budget. It changes no result; a worker
	// that has to build the job counts Seen > 0 as a replay, since that much
	// search is being done twice.
	Seen int `json:"seen,omitempty"`
}

// JobState is an advance's answer as the master reads it: the
// mapsearch.Searcher accessors at Spent, except that History and Raw hold
// only the points after the request's Seen, each with its budget.
type JobState struct {
	Spent    int
	History  ppa.History
	Raw      ppa.History
	Best     ppa.Metrics
	Feasible bool
}
