package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"unico/internal/camodel"
	"unico/internal/disttrace"
	"unico/internal/hw"
	"unico/internal/maestro"
	"unico/internal/mapsearch"
	"unico/internal/mobo"
	"unico/internal/platform"
	"unico/internal/ppa"
	"unico/internal/runid"
	"unico/internal/telemetry"
	"unico/internal/workload"
)

// Server is a worker node: it exposes the PPA-estimation engine and hosts
// resumable mapping-search jobs (the "Jobs" of paper Fig. 6a).
type Server struct {
	spatial mapsearch.SpatialEngine
	ascend  mapsearch.AscendEngine

	// draining: the shard finishes the jobs it holds (advance/release still
	// answer) but refuses new evaluations and jobs it does not hold with
	// 503 + Retry-After, and reports "draining" on its health endpoint.
	draining atomic.Bool

	mu   sync.Mutex
	jobs map[string]*serverJob // by JobSpec.Key

	// plat is the platform of the last job shape built, so every job of
	// one shape reads one platform and one mapsearch.Network. A shape is
	// outside input; one slot bounds what it can hold, and a search sends
	// one shape.
	platMu    sync.Mutex
	platShape string
	plat      jobPlatform
}

// jobPlatform is what building a job needs of its platform.
type jobPlatform interface {
	Space() mobo.Space
	NewJob(x []float64, seed int64) mapsearch.Searcher
	Workload() workload.Workload
}

// serverJob is one held job. mu serializes the advances on it; searcher is
// nil from the moment the job is indexed until its first advance builds it,
// which also sets its engine's label and its workload's layer count.
type serverJob struct {
	mu       sync.Mutex
	searcher mapsearch.Searcher
	engine   string
	layers   int
}

// NewServer builds a worker with default engines.
func NewServer() *Server {
	return NewServerWith(maestro.Engine{}, camodel.Engine{})
}

// NewServerWith builds a worker over explicit engines — instrumented ones
// in bench/, counting stubs in tests.
func NewServerWith(spatial mapsearch.SpatialEngine, ascend mapsearch.AscendEngine) *Server {
	return &Server{spatial: spatial, ascend: ascend, jobs: map[string]*serverJob{}}
}

// Handler returns the HTTP handler exposing the worker API, wrapped in the
// telemetry middleware (request counts, latency histograms, in-flight gauge
// in telemetry.DefaultRegistry):
//
//	POST   /v1/ppa          evaluate one (hw, mapping, layer) triple
//	POST   /v1/jobs/advance bring the job a spec describes to a cumulative budget
//	POST   /v1/jobs/release drop whichever of the named jobs the worker holds
//	GET    /v1/healthz      liveness probe (status "ok" or "draining")
//	POST   /v1/drain        start draining: finish in-flight jobs, refuse new work
//	POST   /v1/undrain      return to normal service
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/ppa", s.handlePPA)
	mux.HandleFunc("POST /v1/jobs/advance", s.handleAdvance)
	mux.HandleFunc("POST /v1/jobs/release", s.handleRelease)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, s.health())
	})
	mux.HandleFunc("POST /v1/drain", func(w http.ResponseWriter, r *http.Request) {
		s.SetDraining(true)
		WriteJSON(w, http.StatusOK, s.health())
	})
	mux.HandleFunc("POST /v1/undrain", func(w http.ResponseWriter, r *http.Request) {
		s.SetDraining(false)
		WriteJSON(w, http.StatusOK, s.health())
	})
	// Attribute request volume to the originating client run via the
	// X-Unico-Run-ID header (capped label cardinality; see DistRunRequests).
	counted := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		telemetry.DistRunRequests(r.Header.Get(runid.Header)).Inc()
		mux.ServeHTTP(w, r)
	})
	return telemetry.InstrumentHandler(telemetry.DefaultRegistry, RouteLabel(), counted)
}

// RouteLabel returns the metric route label of a worker-API server: any
// path that is neither a worker route nor one of extra (a router's admin
// endpoints) folds into "other", so the label set stays bounded no matter
// what paths a scanner probes.
func RouteLabel(extra ...string) func(*http.Request) string {
	known := append([]string{"/v1/ppa", "/v1/jobs/advance", "/v1/jobs/release", "/v1/healthz", "/v1/drain", "/v1/undrain"}, extra...)
	return func(r *http.Request) string {
		if slices.Contains(known, r.URL.Path) {
			return r.URL.Path
		}
		return "other"
	}
}

// SetDraining flips the worker's drain state. Draining is reversible: a
// shard taken out for maintenance rejoins with the jobs it holds.
func (s *Server) SetDraining(d bool) { s.draining.Store(d) }

// Draining reports whether the worker is draining.
func (s *Server) Draining() bool { return s.draining.Load() }

// health is the current HealthResponse.
func (s *Server) health() HealthResponse {
	st := StatusOK
	if s.Draining() {
		st = StatusDraining
	}
	return HealthResponse{Status: st, Jobs: s.JobCount()}
}

// drainRetryAfterSeconds is the backoff a draining worker advertises on
// refused work: long enough that a retrying client lands after the router's
// next health-probe round has re-hashed the shard's key range.
const drainRetryAfterSeconds = 1

// refuseDraining answers a request refused because the worker is draining:
// 503 with Retry-After, the shed contract clients and routers understand
// (the dist client retries it after the advertised delay).
func refuseDraining(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(drainRetryAfterSeconds))
	WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "worker draining"})
}

func (s *Server) handlePPA(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		refuseDraining(w)
		return
	}
	sp := disttrace.StartFromHeader(r.Header, "shard", "/v1/ppa")
	var req PPARequest
	if _, err := DecodeBody(w, r, &req); err != nil {
		sp.End("error", nil)
		WriteJSON(w, http.StatusBadRequest, PPAResponse{Error: "bad request: " + err.Error()})
		return
	}
	var engine string
	var infeasible error
	var evaluate func() (ppa.Metrics, error)
	switch req.Platform {
	case "spatial":
		if req.SpatialHW == nil || req.SpatialMapping == nil {
			sp.End("error", nil)
			WriteJSON(w, http.StatusBadRequest, PPAResponse{Error: "spatial_hw and spatial_mapping required"})
			return
		}
		engine, infeasible = "maestro", maestro.ErrInfeasible
		evaluate = func() (ppa.Metrics, error) { return s.spatial.Evaluate(*req.SpatialHW, *req.SpatialMapping, req.Layer) }
	case "ascend":
		if req.AscendHW == nil || req.AscendMapping == nil {
			sp.End("error", nil)
			WriteJSON(w, http.StatusBadRequest, PPAResponse{Error: "ascend_hw and ascend_mapping required"})
			return
		}
		engine, infeasible = "camodel", camodel.ErrInfeasible
		evaluate = func() (ppa.Metrics, error) { return s.ascend.Evaluate(*req.AscendHW, *req.AscendMapping, req.Layer) }
	default:
		sp.End("error", nil)
		WriteJSON(w, http.StatusBadRequest, PPAResponse{Error: fmt.Sprintf("unknown platform %q", req.Platform)})
		return
	}
	eng := disttrace.StartSpan("", sp.Context(), "engine", engine)
	met, err := evaluate()
	resp := ppaResponse(met, err, infeasible)
	// The engines write no metrics: this handler counts its own calls, as
	// handleAdvance adds each job's.
	telemetry.PPAEvals(engine).Inc()
	if resp.Infeasible {
		telemetry.PPAInfeasible(engine).Inc()
	}
	eng.End(engineStatus(resp), nil)
	sp.End("ok", nil)
	WriteJSON(w, http.StatusOK, resp)
}

// engineStatus labels an engine span: an infeasible or failed evaluation is
// still an "ok" engine run at the tracing level only when it completed; the
// distinction the waterfall cares about is captured in the status string.
func engineStatus(resp PPAResponse) string {
	switch {
	case resp.Infeasible:
		return "infeasible"
	case resp.Error != "":
		return "error"
	}
	return "ok"
}

func ppaResponse(met ppa.Metrics, err error, infeasible error) PPAResponse {
	if err != nil {
		resp := PPAResponse{Error: err.Error()}
		if errors.Is(err, infeasible) {
			resp.Infeasible = true
		}
		return resp
	}
	return PPAResponse{Metrics: met}
}

// handleRelease frees the server-side state of whichever named jobs the
// worker holds. Masters call it when the co-optimizer is done with a batch
// of candidates, so worker memory stays bounded by the in-flight batch
// instead of growing with the whole search; a draining worker releases
// too. An advance in flight on a released job finishes on the searcher it
// already has.
func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	sp := disttrace.StartFromHeader(r.Header, "shard", "/v1/jobs/release")
	var req ReleaseRequest
	if _, err := DecodeBody(w, r, &req); err != nil {
		sp.End("error", nil)
		WriteJSON(w, http.StatusBadRequest, ReleaseResponse{Error: "bad request: " + err.Error()})
		return
	}
	released := 0
	s.mu.Lock()
	for _, id := range req.IDs {
		if _, ok := s.jobs[id]; ok {
			delete(s.jobs, id)
			released++
		}
	}
	telemetry.DistJobs().Set(float64(len(s.jobs)))
	s.mu.Unlock()
	sp.End("ok", nil)
	WriteJSON(w, http.StatusOK, ReleaseResponse{Released: released})
}

// JobCount returns how many jobs the worker currently holds.
func (s *Server) JobCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}

// lookupNetworks resolves zoo names to their workloads.
func lookupNetworks(names []string) ([]workload.Workload, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("dist: no networks named")
	}
	ws := make([]workload.Workload, len(names))
	for i, n := range names {
		wl, err := workload.ByName(n)
		if err != nil {
			return nil, err
		}
		ws[i] = wl
	}
	return ws, nil
}

// build materializes the job's network searcher from the spec: every field
// is checked here, since the spec is outside input, and the search itself is
// the platform's own NewJob over the server's engine — the same call a local
// run makes.
func (j *serverJob) build(s *Server, spec JobSpec) error {
	p, err := s.platform(spec)
	if err != nil {
		return err
	}
	if dim := p.Space().Dim(); len(spec.X) != dim {
		return fmt.Errorf("dist: x has %d coords, want %d", len(spec.X), dim)
	}
	j.searcher, j.layers = p.NewJob(spec.X, spec.Seed), len(p.Workload().Layers)
	j.engine = map[string]string{"spatial": "maestro", "ascend": "camodel"}[spec.Platform]
	return nil
}

// platform returns the platform of the spec's shape — its platform,
// scenario, networks and algo — building it when the shape differs from the
// last one built. Its workload, the layer order and each layer's moves do
// not depend on the hardware or the seed, so the jobs of one shape share
// them as a local run's jobs do.
func (s *Server) platform(spec JobSpec) (jobPlatform, error) {
	shape := fmt.Sprintf("%q %q %q %q", spec.Platform, spec.Scenario, spec.Networks, spec.Algo)
	s.platMu.Lock()
	defer s.platMu.Unlock()
	if s.plat != nil && s.platShape == shape {
		return s.plat, nil
	}
	p, err := s.newPlatform(spec)
	if err != nil {
		return nil, err
	}
	s.platShape, s.plat = shape, p
	return p, nil
}

// newPlatform builds the platform a spec names over the server's engines.
func (s *Server) newPlatform(spec JobSpec) (jobPlatform, error) {
	ws, err := lookupNetworks(spec.Networks)
	if err != nil {
		return nil, err
	}
	switch spec.Platform {
	case "spatial":
		sc, err := parseScenario(spec.Scenario)
		if err != nil {
			return nil, err
		}
		if err := checkAlgo(spec.Algo, mapsearch.FlexTensorLike); err != nil {
			return nil, err
		}
		sp := platform.NewSpatial(sc, ws, mapsearch.FlexTensorLike)
		sp.Engine = s.spatial
		return sp, nil
	case "ascend":
		if err := checkAlgo(spec.Algo, mapsearch.DepthFirst); err != nil {
			return nil, err
		}
		ap := platform.NewAscend(ws, mapsearch.DepthFirst)
		ap.Engine = s.ascend
		return ap, nil
	default:
		return nil, fmt.Errorf("dist: unknown platform %q", spec.Platform)
	}
}

// checkAlgo accepts a spec's algo if it is empty or names the platform's one
// searcher.
func checkAlgo(algo string, searcher mapsearch.Algo) error {
	if algo != "" && algo != searcher.String() {
		return fmt.Errorf("dist: algo %q, want %q or none", algo, searcher)
	}
	return nil
}

func parseScenario(scenario string) (hw.Scenario, error) {
	switch scenario {
	case "edge", "":
		return hw.Edge, nil
	case "cloud":
		return hw.Cloud, nil
	default:
		return 0, fmt.Errorf("dist: unknown scenario %q", scenario)
	}
}

// hold returns the job indexed under key, indexing an empty one when the
// worker has none — unless it is draining: a draining worker finishes what
// it holds and takes nothing new (nil).
func (s *Server) hold(key string) *serverJob {
	s.mu.Lock()
	defer s.mu.Unlock()
	job := s.jobs[key]
	if job == nil && !s.Draining() {
		job = &serverJob{}
		s.jobs[key] = job
		telemetry.DistJobs().Set(float64(len(s.jobs)))
	}
	return job
}

// drop removes job from the index if it is still what key names there.
func (s *Server) drop(key string, job *serverJob) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jobs[key] == job {
		delete(s.jobs, key)
		telemetry.DistJobs().Set(float64(len(s.jobs)))
	}
}

// handleAdvance is the whole job protocol: bring the job the spec describes
// to the cumulative budget and answer its state there, with the points after
// the caller's Seen. The worker builds the searcher when it holds none or
// holds one already past the target, and otherwise spends the difference —
// so sending a request again, here or to another worker, spends nothing
// twice and answers the same.
func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	sp := disttrace.StartFromHeader(r.Header, "shard", "/v1/jobs/advance")
	reject := func(msg string) {
		sp.End("error", nil)
		WriteJSON(w, http.StatusBadRequest, map[string]string{"error": msg})
	}
	var req AdvanceRequest
	if _, err := DecodeBody(w, r, &req); err != nil {
		reject("bad request: " + err.Error())
		return
	}
	if req.Budget < 0 {
		reject("negative budget")
		return
	}
	if req.Seen < 0 || req.Seen > req.Budget {
		reject(fmt.Sprintf("seen %d outside [0, budget %d]", req.Seen, req.Budget))
		return
	}
	key := req.Spec.Key()
	job := s.hold(key)
	if job == nil {
		sp.End("shed", nil)
		refuseDraining(w)
		return
	}
	job.mu.Lock()
	defer job.mu.Unlock()
	parent := sp.Context()
	var replay *disttrace.Span
	if job.searcher == nil || job.searcher.Spent() > req.Budget {
		if err := job.build(s, req.Spec); err != nil {
			s.drop(key, job) // a spec that cannot build leaves nothing behind
			reject(err.Error())
			return
		}
		if req.Seen > 0 {
			// The caller already watched this job reach Seen somewhere that
			// no longer answers for it: that much search runs a second time.
			// The span nests the engine work so a waterfall shows the cost.
			telemetry.FleetReplays().Inc()
			replay = disttrace.StartSpan("", parent, "replay", "/v1/jobs/advance")
			if sc := replay.Context(); sc.Valid() {
				parent = sc
			}
		}
	}
	// The engine span covers budget spend AND state assembly, and is
	// recorded even when there is nothing to spend: unicoreport's
	// chain-completeness rule (every ok eval has an engine descendant)
	// stays uniform.
	eng := disttrace.StartSpan("", parent, "engine", "advance")
	spend := req.Budget - job.searcher.Spent()
	if spend > 0 {
		// The worker's totals add what the advance did, replays included.
		before := job.searcher.Tally()
		job.searcher.Advance(spend)
		after := job.searcher.Tally()
		telemetry.PPAEvals(job.engine).Add(after.Calls - before.Calls)
		telemetry.PPAInfeasible(job.engine).Add(after.Infeasible - before.Infeasible)
		telemetry.MapSearchSteps().Add(uint64(spend * job.layers))
	}
	answer := packAnswer(req.Seen, job.searcher)
	eng.End("ok", map[string]string{"budget": strconv.Itoa(spend)})
	replay.End("ok", map[string]string{"seen": strconv.Itoa(req.Seen)})
	sp.End("ok", nil)
	writeBody(w, http.StatusOK, answerContentType, answer)
}

// DecodeBody reads a JSON request body of at most MaxBodyBytes into v and
// returns the bytes it read (what a router forwards); a longer body is an
// error, not an allocation, and so is anything after the one JSON value.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) ([]byte, error) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		return nil, err
	}
	return raw, json.Unmarshal(raw, v)
}

// WriteJSON answers with v as the JSON body (newline-terminated) under the
// given status, its length declared so the reader can take it in one
// allocation.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err == nil {
		body = append(body, '\n')
	}
	writeBody(w, code, "application/json", body)
}

// writeBody answers with body under the given status and Content-Type, its
// length declared.
func writeBody(w http.ResponseWriter, code int, contentType string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	_, _ = w.Write(body)
}
