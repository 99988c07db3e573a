package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"bedom/internal/dist"
	"bedom/internal/engine"
	"bedom/internal/gen"
	"bedom/internal/graph"
	"bedom/internal/obs"
)

// maxBodyBytes bounds request bodies (edge lists can be large but finite).
const maxBodyBytes = 256 << 20

// maxGraphVertices bounds the declared vertex count of registered graphs: a
// request body is small even when its 'n' is huge, and graph.New allocates
// O(n) immediately, so the body-size limit alone does not bound memory.
const maxGraphVertices = 32 << 20

// serverOptions tunes the HTTP surface beyond the engine itself.
type serverOptions struct {
	// Metrics is the registry GET /metrics exposes (nil = obs.Default()).
	// main wires the engine, the dist simulator and the HTTP middleware to
	// the same registry so one scrape covers the whole process.
	Metrics *obs.Registry
	// SlowQuery logs a warning with the request's full span trace when a
	// request takes at least this long (0 = disabled).
	SlowQuery time.Duration
}

// server wires an engine to the HTTP surface.
type server struct {
	eng       *engine.Engine
	start     time.Time
	mux       *http.ServeMux
	reg       *obs.Registry
	slowQuery time.Duration

	httpRequests *obs.CounterVec   // bedom_http_requests_total{route,code}
	httpSeconds  *obs.HistogramVec // bedom_http_request_seconds{route}
	httpPanics   *obs.Counter      // bedom_http_panics_total
}

// newServer returns the domserved handler tree:
//
//	POST   /graphs               register a graph (JSON, text edge list, or
//	                             NDJSON streaming ingest)
//	GET    /graphs               list registered graphs
//	DELETE /graphs/{name}        unregister a graph
//	POST   /graphs/{name}/edges  mutate a graph (JSON delta: add/remove
//	                             edges, add vertices)
//	POST   /query                run one domination query (the 'solver'
//	                             field selects the strategy)
//	POST   /batch                run many queries across the worker pool
//	GET    /stats                engine counters (cache, executor, latency,
//	                             per-graph generations, per-solver queries)
//	GET    /metrics              Prometheus text exposition of the registry
//	GET    /healthz              tri-state readiness probe (ok / degraded /
//	                             overloaded)
//	GET    /debug/dist/runs      recent distributed runs (round profiles),
//	                             newest first
//	GET    /debug/dist/runs/{id} one run's full round profile by query ID
//	                             (?format=perfetto for a Chrome trace-event
//	                             document that opens in ui.perfetto.dev)
//
// Every request passes through the observability middleware: it mints a
// query ID (echoed as X-Query-ID and propagated via the request context, so
// engine stage spans attach to it), counts the request per route and status,
// and records per-route latency.
func newServer(eng *engine.Engine, opts serverOptions) http.Handler {
	reg := opts.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	s := &server{
		eng:       eng,
		start:     time.Now(),
		reg:       reg,
		slowQuery: opts.SlowQuery,
		httpRequests: reg.CounterVec("bedom_http_requests_total",
			"HTTP requests served, by route pattern and status code.", "route", "code"),
		httpSeconds: reg.HistogramVec("bedom_http_request_seconds",
			"HTTP request latency, by route pattern.", nil, "route"),
		httpPanics: reg.Counter("bedom_http_panics_total",
			"Panics recovered in HTTP handlers (each answered 500 to its own request)."),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /graphs", s.handleRegister)
	mux.HandleFunc("GET /graphs", s.handleListGraphs)
	mux.HandleFunc("DELETE /graphs/{name}", s.handleRemoveGraph)
	mux.HandleFunc("POST /graphs/{name}/edges", s.handleMutate)
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /batch", s.handleBatch)
	mux.HandleFunc("POST /admin/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /debug/dist/runs", s.handleDistRuns)
	mux.HandleFunc("GET /debug/dist/runs/{id}", s.handleDistRun)
	s.mux = mux
	return s.instrument(mux)
}

// statusWriter captures the response status for the request metrics, and
// whether a header was sent at all (the panic recoverer must not stack a 500
// onto a partially written response).
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(p)
}

// instrument is the observability middleware: query-ID assignment, panic
// recovery, per-route request/latency metrics, and slow-request trace
// logging.
func (s *server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		qid := obs.NewQueryID()
		tr := obs.NewTrace(qid)
		r = r.WithContext(obs.WithTrace(r.Context(), tr))
		w.Header().Set("X-Query-ID", qid)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		func() {
			// A handler panic fails its own request with a 500 (the response
			// still carries X-Query-ID, so the client's error report can be
			// matched to the stack in the log) and never the process.  The
			// engine recovers query-pipeline panics itself; this is the
			// last-resort net for the HTTP layer.
			defer func() {
				p := recover()
				if p == nil {
					return
				}
				if p == http.ErrAbortHandler {
					// The sentinel for deliberately aborting a response:
					// honor it rather than masking it as a 500.
					panic(p)
				}
				s.httpPanics.Inc()
				slog.Error("http handler panicked",
					"query_id", qid, "method", r.Method, "url", r.URL.Path,
					"panic", p, "stack", string(debug.Stack()))
				if !sw.wrote {
					httpError(sw, http.StatusInternalServerError, "internal server error")
				}
			}()
			next.ServeHTTP(sw, r)
		}()
		elapsed := time.Since(start)
		// Label by the mux's route pattern, not the raw URL: /graphs/{name}
		// is one series however many graphs exist (metric cardinality must
		// not be client-controlled).
		_, route := s.mux.Handler(r)
		if route == "" {
			route = "unmatched"
		}
		s.httpSeconds.With(route).ObserveDuration(elapsed)
		s.httpRequests.With(route, strconv.Itoa(sw.status)).Inc()
		if s.slowQuery > 0 && elapsed >= s.slowQuery {
			args := []any{
				"query_id", qid,
				"route", route,
				"status", sw.status,
				"elapsed_ms", float64(elapsed) / float64(time.Millisecond),
				"trace", tr.String(),
			}
			// If the request ran the distributed simulator, point at its
			// retained round profile so the log line leads straight to the
			// per-round breakdown (and ?format=perfetto).
			if _, ok := s.eng.DistRun(qid); ok {
				args = append(args, "dist_profile", "/debug/dist/runs/"+qid)
			}
			slog.Warn("slow request", args...)
		}
	})
}

// registerRequest is the JSON body of POST /graphs.  Exactly one graph
// source must be given: an inline edge array, an inline edge-list document,
// or a generator family.
type registerRequest struct {
	Name string `json:"name"`
	// N + Edges define the graph explicitly.
	N     int      `json:"n,omitempty"`
	Edges [][2]int `json:"edges,omitempty"`
	// EdgeList is an inline document in the library's edge-list format.
	EdgeList string `json:"edge_list,omitempty"`
	// Family + Seed generate a member of a built-in family (see
	// `graphgen -list`); N is the approximate vertex count.
	Family string `json:"family,omitempty"`
	Seed   int64  `json:"seed,omitempty"`
	// LargestComponent restricts a generated graph to its largest component.
	LargestComponent bool `json:"largest_component,omitempty"`
}

func (s *server) handleRegister(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	ct := r.Header.Get("Content-Type")
	// Streaming NDJSON ingest: large edge lists arrive as one JSON value per
	// line (a header object, then edges), decoded incrementally — the body
	// (typically chunked) is never buffered whole, so memory tracks the
	// graph, not the document.  The request-size cap still applies: it is
	// what bounds adversarial duplicate-heavy streams, whose adjacency
	// accumulation is O(lines) until finalization dedups.
	if strings.HasPrefix(ct, "application/x-ndjson") || strings.HasPrefix(ct, "application/jsonl") {
		s.handleRegisterStream(w, body)
		return
	}
	// Raw edge-list upload: the body is the document, the name a query param.
	if strings.HasPrefix(ct, "text/plain") || strings.HasPrefix(ct, "application/octet-stream") {
		name := r.URL.Query().Get("name")
		if name == "" {
			httpError(w, http.StatusBadRequest, "query parameter 'name' is required for edge-list uploads")
			return
		}
		g, err := parseEdgeListBounded(body)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		info, err := s.eng.Register(name, g)
		if err != nil {
			// Any failure here is input-derived (a parse error or a rejected
			// registration), never a server fault.
			engineError(w, registerStatusFor(err), err)
			return
		}
		writeJSON(w, http.StatusCreated, info)
		return
	}

	var req registerRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	g, err := buildGraph(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	info, err := s.eng.Register(req.Name, g)
	if err != nil {
		engineError(w, registerStatusFor(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

// registerStatusFor maps registration failures to statuses: everything that
// goes wrong while parsing or admitting a graph is the client's input.
func registerStatusFor(err error) int {
	if s := statusFor(err); s != http.StatusInternalServerError {
		return s
	}
	return http.StatusBadRequest
}

func buildGraph(req registerRequest) (*graph.Graph, error) {
	sources := 0
	for _, has := range []bool{req.Edges != nil, req.EdgeList != "", req.Family != ""} {
		if has {
			sources++
		}
	}
	if sources != 1 {
		return nil, errors.New("exactly one of 'edges', 'edge_list' or 'family' must be given")
	}
	if req.N < 0 || req.N > maxGraphVertices {
		return nil, fmt.Errorf("'n' must be in [0, %d], got %d", maxGraphVertices, req.N)
	}
	switch {
	case req.Edges != nil:
		return graph.FromEdges(req.N, req.Edges)
	case req.EdgeList != "":
		return parseEdgeListBounded(strings.NewReader(req.EdgeList))
	default:
		f, err := gen.FamilyByName(req.Family)
		if err != nil {
			return nil, err
		}
		if req.N <= 0 {
			return nil, fmt.Errorf("family %q needs a positive 'n'", req.Family)
		}
		g := f.Generate(req.N, req.Seed)
		if req.LargestComponent {
			g, _ = gen.LargestComponent(g)
		}
		return g, nil
	}
}

// parseEdgeListBounded parses an edge-list document with the daemon's vertex
// bound enforced before the O(n) adjacency table is allocated — a tiny body
// can otherwise declare an arbitrarily large n, defeating the request-size
// limit.
func parseEdgeListBounded(r io.Reader) (*graph.Graph, error) {
	return graph.ReadEdgeListLimit(r, maxGraphVertices)
}

// streamHeader is the first NDJSON value of a streaming ingest: the graph
// name and its declared vertex count.  Every following value is one edge
// [u, v]; duplicates collapse at finalization, exactly like the edge-list
// upload path.
type streamHeader struct {
	Name string `json:"name"`
	N    int    `json:"n"`
}

// streamResponse is the 201 body of a streaming ingest: the registered
// graph plus how many edge lines were consumed (before deduplication).
type streamResponse struct {
	engine.GraphInfo
	EdgesIngested int `json:"edges_ingested"`
}

// handleRegisterStream ingests `Content-Type: application/x-ndjson` bodies:
//
//	{"name":"g","n":1000}
//	[0,1]
//	[1,2]
//	...
//
// The decoder pulls values straight off the (chunked) request body, so an
// edge stream costs O(graph) memory rather than a full in-memory copy of
// the document.  Bodies are bounded by maxBodyBytes like every other
// registration path (≈ 30M edge lines).
func (s *server) handleRegisterStream(w http.ResponseWriter, body io.Reader) {
	dec := json.NewDecoder(body)
	var hdr streamHeader
	if err := dec.Decode(&hdr); err != nil {
		httpError(w, http.StatusBadRequest, "bad NDJSON header (want {\"name\":...,\"n\":...}): "+err.Error())
		return
	}
	if hdr.Name == "" {
		httpError(w, http.StatusBadRequest, "NDJSON header must set 'name'")
		return
	}
	if hdr.N < 0 || hdr.N > maxGraphVertices {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("'n' must be in [0, %d], got %d", maxGraphVertices, hdr.N))
		return
	}
	g := graph.New(hdr.N)
	edges := 0
	// Decode into a slice, not [2]int: fixed-size array decoding zero-fills
	// short JSON arrays and discards extra elements, which would silently
	// register a wrong topology from a malformed line like [5] or [1,2,3].
	var e []int
	for {
		e = e[:0]
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("edge %d: bad NDJSON value (want [u,v]): %v", edges+1, err))
			return
		}
		if len(e) != 2 {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("edge %d: want exactly [u,v], got %d elements", edges+1, len(e)))
			return
		}
		if err := g.AddEdgeLazy(e[0], e[1]); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("edge %d: %v", edges+1, err))
			return
		}
		edges++
	}
	g.Finalize()
	info, err := s.eng.Register(hdr.Name, g)
	if err != nil {
		engineError(w, registerStatusFor(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, streamResponse{GraphInfo: info, EdgesIngested: edges})
}

// mutateRequest is the JSON body of POST /graphs/{name}/edges.  Edges are
// decoded as variable-length slices, not [2]int: fixed-size array decoding
// zero-fills short JSON arrays and discards extra elements, which would
// silently mutate the graph with edges the client never sent.
type mutateRequest struct {
	AddVertices int     `json:"add_vertices"`
	Add         [][]int `json:"add"`
	Remove      [][]int `json:"remove"`
}

func (m mutateRequest) toDelta() (engine.Delta, error) {
	conv := func(field string, pairs [][]int) ([][2]int, error) {
		if pairs == nil {
			return nil, nil
		}
		out := make([][2]int, len(pairs))
		for i, p := range pairs {
			if len(p) != 2 {
				return nil, fmt.Errorf("'%s' entry %d: want exactly [u,v], got %d elements", field, i, len(p))
			}
			out[i] = [2]int{p[0], p[1]}
		}
		return out, nil
	}
	add, err := conv("add", m.Add)
	if err != nil {
		return engine.Delta{}, err
	}
	remove, err := conv("remove", m.Remove)
	if err != nil {
		return engine.Delta{}, err
	}
	return engine.Delta{AddVertices: m.AddVertices, Add: add, Remove: remove}, nil
}

// handleMutate applies a JSON delta to a registered graph:
//
//	POST /graphs/{name}/edges
//	{"add":[[0,5],[2,9]], "remove":[[0,1]], "add_vertices":2}
//
// An effective delta bumps the graph's cache generation, invalidating only
// that graph's substrates; the response reports the new topology, the
// per-operation outcome counts, and how many substrates were invalidated.
func (s *server) handleMutate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req mutateRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	delta, err := req.toDelta()
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if delta.Empty() {
		httpError(w, http.StatusBadRequest, "empty delta: set 'add', 'remove' or 'add_vertices'")
		return
	}
	// Bound the post-mutation vertex count, not just this delta's growth:
	// repeated mutations must not walk a graph past the registration-path
	// cap.  Info is a counter read — no snapshot materialization on the
	// mutation hot path.  (Racing mutations may each pass the check
	// individually; the bound is a resource guard, so being off by one
	// concurrent delta is acceptable.)
	if gi, ok := s.eng.Info(name); ok {
		if delta.AddVertices > maxGraphVertices-gi.N {
			httpError(w, http.StatusBadRequest, fmt.Sprintf(
				"'add_vertices' would grow the graph past %d vertices (n=%d, add_vertices=%d)",
				maxGraphVertices, gi.N, delta.AddVertices))
			return
		}
	}
	info, err := s.eng.Mutate(name, delta)
	if err != nil {
		engineError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *server) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"graphs": s.eng.Graphs()})
}

func (s *server) handleRemoveGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	ok, err := s.eng.Remove(name)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown graph %q", name))
		return
	}
	if err != nil {
		// The graph is gone from the live engine but not from disk: do not
		// ack a removal a restart would undo.
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"removed": name})
}

// queryRequest is the JSON body of POST /query and each entry of /batch.
type queryRequest struct {
	Graph string `json:"graph"`
	Kind  string `json:"kind"`
	R     int    `json:"r"`
	// TimeoutMS bounds this query in milliseconds (0 = server default).
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Model names the communication model for distributed kinds
	// ("local", "congest", "congest_bc"; default "congest_bc").
	Model string `json:"model,omitempty"`
	// MaxRounds / RefinedOrder tune the simulator.
	MaxRounds    int  `json:"max_rounds,omitempty"`
	RefinedOrder bool `json:"refined_order,omitempty"`
	// Solver names the strategy for the domset and dist-domset kinds
	// ("paper", "kubsv", "dvorak", "greedy", "order-greedy"; default
	// "paper").  Unknown names fail with 400 listing the registry.
	Solver string `json:"solver,omitempty"`
	// OmitSets drops the (possibly large) vertex sets from the response,
	// keeping sizes and statistics only.
	OmitSets bool `json:"omit_sets,omitempty"`
	// IncludeClusters attaches the full cluster map to cover responses.
	IncludeClusters bool `json:"include_clusters,omitempty"`
}

func (q queryRequest) toEngine() (engine.Request, error) {
	if q.MaxRounds < 0 || q.MaxRounds > maxClientRounds {
		return engine.Request{}, fmt.Errorf("max_rounds must be in [0, %d], got %d", maxClientRounds, q.MaxRounds)
	}
	req := engine.Request{
		Graph:           q.Graph,
		Kind:            engine.Kind(q.Kind),
		R:               q.R,
		Timeout:         time.Duration(q.TimeoutMS) * time.Millisecond,
		MaxRounds:       q.MaxRounds,
		RefinedOrder:    q.RefinedOrder,
		Solver:          q.Solver,
		IncludeClusters: q.IncludeClusters,
	}
	if q.Model != "" {
		m, err := engine.ParseModel(q.Model)
		if err != nil {
			return engine.Request{}, err
		}
		req.Model = m
		req.ModelSet = true
	}
	return req, nil
}

// queryResponse wraps an engine response with an error string for batch
// entries (and trims sets when omit_sets was requested).
type queryResponse struct {
	*engine.Response
	Error string `json:"error,omitempty"`
}

func toResponse(resp *engine.Response, err error, omitSets bool) queryResponse {
	if err != nil {
		return queryResponse{Error: err.Error()}
	}
	if omitSets {
		trimmed := *resp
		trimmed.Set = nil
		trimmed.DomSet = nil
		resp = &trimmed
	}
	return queryResponse{Response: resp}
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var q queryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&q); err != nil {
		httpError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	req, err := q.toEngine()
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	resp, err := s.eng.Do(r.Context(), req)
	if err != nil {
		engineError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, toResponse(resp, nil, q.OmitSets))
}

// batchRequest is the JSON body of POST /batch.
type batchRequest struct {
	Queries []queryRequest `json:"queries"`
}

// maxBatchSize bounds one batch request.
const maxBatchSize = 4096

// maxClientRounds caps the client-supplied max_rounds override.  The
// simulator's own default (~100·n) already bounds runaway protocols; an
// unbounded client value would let a single request pin a pool worker
// arbitrarily long after its timeout fired (the simulator does not observe
// contexts), starving the daemon.
const maxClientRounds = 10_000_000

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var b batchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&b); err != nil {
		httpError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	if len(b.Queries) == 0 {
		httpError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(b.Queries) > maxBatchSize {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("batch too large (%d > %d)", len(b.Queries), maxBatchSize))
		return
	}
	reqs := make([]engine.Request, len(b.Queries))
	for i, q := range b.Queries {
		req, err := q.toEngine()
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("query %d: %v", i, err))
			return
		}
		reqs[i] = req
	}
	start := time.Now()
	results := s.eng.Batch(r.Context(), reqs)
	out := make([]queryResponse, len(results))
	errs := 0
	for i, res := range results {
		out[i] = toResponse(res.Response, res.Err, b.Queries[i].OmitSets)
		if res.Err != nil {
			errs++
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"results":    out,
		"errors":     errs,
		"elapsed_ms": float64(time.Since(start)) / float64(time.Millisecond),
	})
}

// handleCheckpoint folds the WAL into fresh snapshots on demand (the
// background checkpointer does the same on its interval).  On an in-memory
// daemon (no -data-dir) it reports 409: there is nothing to persist to.
func (s *server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	info, err := s.eng.Checkpoint()
	if err != nil {
		if errors.Is(err, engine.ErrNoStore) {
			httpError(w, http.StatusConflict, "persistence is not enabled (start with -data-dir)")
			return
		}
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// Telemetry responses carry Cache-Control: no-store so fronting proxies
// never serve stale counters to a dashboard or probe.

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Cache-Control", "no-store")
	writeJSON(w, http.StatusOK, s.eng.Stats())
}

// handleMetrics serves the registry in the Prometheus text exposition
// format: engine query/cache/persist counters and latency histograms, the
// simulator's per-model round/message/bandwidth accounting, and the HTTP
// layer's own request metrics.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("Content-Type", obs.TextContentType)
	if err := s.reg.WritePrometheus(w); err != nil {
		// The headers are out; a mid-scrape write error only truncates the
		// response, which Prometheus treats as a failed scrape.
		_ = err
	}
}

// handleHealthz is the tri-state readiness probe: 200 "ok" when the engine is
// fully serviceable, 503 "degraded" (with the reason) when persistence failed
// and the engine is read-only, 503 "overloaded" while the admission queue is
// full.  Both 503 shapes carry Retry-After so probes and clients back off.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Cache-Control", "no-store")
	state, reason := s.eng.Health()
	body := map[string]any{
		"status":    state,
		"graphs":    s.eng.GraphCount(),
		"uptime_ms": float64(time.Since(s.start)) / float64(time.Millisecond),
	}
	status := http.StatusOK
	if state != engine.HealthOK {
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", retryAfterSeconds)
		if reason != "" {
			body["reason"] = reason
		}
	}
	writeJSON(w, status, body)
}

// handleDistRuns lists the recently retained distributed runs, newest first.
// Each entry is a summary (query ID, request shape, aggregate round/message/
// word totals); the full round profile lives at /debug/dist/runs/{id}.
func (s *server) handleDistRuns(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Cache-Control", "no-store")
	runs := s.eng.DistRuns()
	if runs == nil {
		runs = []engine.DistRunSummary{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"runs": runs})
}

// handleDistRun serves one retained run's full per-phase round profile.  The
// {id} is the query ID the run executed under — the X-Query-ID header of the
// originating request, also echoed by slow-request log lines.  With
// ?format=perfetto the profile is rendered as a Chrome trace-event document
// that loads directly in ui.perfetto.dev or chrome://tracing.
func (s *server) handleDistRun(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Cache-Control", "no-store")
	id := r.PathValue("id")
	rec, ok := s.eng.DistRun(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf("no retained distributed run %q", id))
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, http.StatusOK, rec)
	case "perfetto":
		w.Header().Set("Content-Type", obs.TraceEventsContentType)
		if err := obs.WriteTraceEvents(w, dist.PerfettoEvents(rec.Profiles)); err != nil {
			// Headers are out; nothing to do but stop writing.
			_ = err
		}
	default:
		httpError(w, http.StatusBadRequest,
			fmt.Sprintf("unknown format %q (want \"json\" or \"perfetto\")", format))
	}
}

// statusClientClosedRequest is the nginx-convention status for a client that
// went away mid-request; it keeps ordinary disconnects out of the 5xx rate.
const statusClientClosedRequest = 499

// retryAfterSeconds is the Retry-After value sent with backpressure 503s:
// overload drains in roughly a queue's worth of query latencies and degraded
// mode exits on the next checkpoint cycle, so "soon" is honest — the header's
// job is pacing well-behaved retries, not predicting recovery.
const retryAfterSeconds = "1"

// statusFor maps engine errors to HTTP status codes.
func statusFor(err error) int {
	switch {
	case errors.Is(err, engine.ErrUnknownGraph):
		return http.StatusNotFound
	case errors.Is(err, engine.ErrInvalidRequest):
		return http.StatusBadRequest
	case errors.Is(err, engine.ErrConflict):
		return http.StatusConflict
	case errors.Is(err, engine.ErrEngineClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, engine.ErrOverloaded), errors.Is(err, engine.ErrDegraded):
		// Backpressure: the daemon is alive but sheds this request.  Both
		// paths also send Retry-After (see engineError).
		return http.StatusServiceUnavailable
	case errors.Is(err, engine.ErrQueryPanic):
		return http.StatusInternalServerError
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	case errors.Is(err, dist.ErrMaxRounds), errors.Is(err, dist.ErrMessageTooLarge),
		errors.Is(err, dist.ErrBadModel):
		// Simulator failures driven by client-supplied knobs (max_rounds,
		// model) are the request's fault, not the daemon's.
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

// engineError writes an engine failure with its mapped status, attaching
// Retry-After to every 503 so shed or rejected requests come back paced
// instead of in a tight retry loop.
func engineError(w http.ResponseWriter, status int, err error) {
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfterSeconds)
	}
	httpError(w, status, err.Error())
}

// newHTTPServer returns the daemon's hardened http.Server: header reads are
// bounded (slow-loris), idle keep-alive connections are reaped, response
// writes are bounded generously (batch responses over large graphs are
// legitimately slow), and header size is capped.  readHeaderTimeout ≤ 0
// selects the default.
func newHTTPServer(addr string, h http.Handler, readHeaderTimeout time.Duration) *http.Server {
	if readHeaderTimeout <= 0 {
		readHeaderTimeout = 10 * time.Second
	}
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       2 * time.Minute,
		WriteTimeout:      15 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		// Headers are gone; nothing sensible left to do but drop the conn.
		_ = err
	}
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
