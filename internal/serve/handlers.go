package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/scenario"
)

// SubmitRequest is the POST /v1/jobs body.
type SubmitRequest struct {
	// Spec is the scenario to run (same schema as the files under
	// examples/scenarios/; unknown fields are rejected).
	Spec json.RawMessage `json:"spec"`
	// Reps is the replication count per sweep point (default 10, the
	// CLI default).
	Reps int `json:"reps,omitempty"`
	// TimeoutS bounds the job's running time in seconds, capped by the
	// server's -job-timeout. 0 (or absent) inherits the server limit.
	// A job exceeding its deadline ends in state "timed_out" (504 on
	// /result).
	TimeoutS float64 `json:"timeout_s,omitempty"`
}

// SubmitResponse answers POST /v1/jobs.
type SubmitResponse struct {
	ID    string `json:"id"`
	Key   string `json:"key"`
	State State  `json:"state"`
	// Cached: answered from the result cache, job is already done.
	Cached bool `json:"cached"`
	// Coalesced: attached to an identical queued/running job.
	Coalesced bool `json:"coalesced"`
}

// StatsResponse answers GET /v1/stats.
type StatsResponse struct {
	Counters
	CacheEntries int `json:"cache_entries"`
	// CacheBytes is the in-memory result cache's resident byte count;
	// DiskCacheBytes the disk tier's occupancy (0 without -cache-dir).
	CacheBytes     int   `json:"cache_bytes"`
	DiskCacheBytes int64 `json:"disk_cache_bytes"`
	// JournalLiveRecords counts accepted jobs the journal still owes a
	// terminal record for (0 without -journal-dir) — the replay set a
	// crash right now would leave behind.
	JournalLiveRecords int `json:"journal_live_records"`
}

// Event is one line of the GET /v1/jobs/{id}/events and
// /v1/campaigns/{id}/events NDJSON streams.
type Event struct {
	// Event is "state" (job changed lifecycle stage) or "progress"
	// (one more replication finished, or — for campaigns — a grid
	// point completed).
	Event string `json:"event"`
	State State  `json:"state"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
	// PointsDone/PointsTotal track grid points through a campaign job
	// (absent for scenario jobs).
	PointsDone  int `json:"points_done,omitempty"`
	PointsTotal int `json:"points_total,omitempty"`
	// Error is set on terminal failed/cancelled states.
	Error string `json:"error,omitempty"`
	// Trace carries the job's full lifecycle timeline on the terminal
	// event line only (absent on progress lines).
	Trace []TraceStage `json:"trace,omitempty"`
}

// Handler returns the server's HTTP API:
//
//	POST   /v1/jobs             submit a study (SubmitRequest)
//	POST   /v1/predict          answer a spec analytically, synchronously
//	                            (model engine; fingerprint-cached;
//	                            ?format=text for the CLI-identical text)
//	POST   /v1/campaigns        submit a campaign (CampaignRequest);
//	                            X-Cache reports hit/miss
//	GET    /v1/jobs             list scenario-job statuses in submission order
//	GET    /v1/jobs/{id}        one job's status
//	GET    /v1/jobs/{id}/result final result (JSON; ?format=text for
//	                            the CLI-identical text rendering)
//	GET    /v1/jobs/{id}/events NDJSON stream of state/progress events
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/campaigns        list campaign-job statuses
//	GET    /v1/campaigns/{id}   one campaign's status (incl. grid points)
//	GET    /v1/campaigns/{id}/result  final campaign result (JSON;
//	                            ?format=text for the sim1901 -campaign text)
//	GET    /v1/campaigns/{id}/events  NDJSON per-replication and
//	                            per-point progress
//	DELETE /v1/campaigns/{id}   cancel a queued or running campaign
//	GET    /v1/stats            counters + cache/journal occupancy
//	GET    /metrics             Prometheus text exposition (same counts
//	                            as /v1/stats, plus queue/latency
//	                            histograms and occupancy gauges)
//	GET    /healthz             liveness probe (200 while the process runs)
//	GET    /readyz              readiness probe (503 during journal
//	                            replay, queue saturation, or after
//	                            repeated journal/disk-cache write
//	                            failures; 200 otherwise)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("POST /v1/predict", s.handlePredict)
	mux.HandleFunc("POST /v1/campaigns", s.handleSubmitCampaign)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/campaigns", s.handleListCampaigns)
	mux.HandleFunc("GET /v1/campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/campaigns/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/campaigns/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/campaigns/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.Handle("GET /metrics", s.metrics.reg.Handler())
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	return mux
}

// ReadyResponse answers GET /readyz.
type ReadyResponse struct {
	Ready bool `json:"ready"`
	// Reason explains a 503 ("journal replay in progress", "job queue
	// saturated", "journal degraded: …", "disk cache degraded: …").
	Reason string `json:"reason,omitempty"`
}

// handleReady is the readiness probe: 200 when the server should
// receive traffic, 503 (with the reason) when a load balancer should
// route around it — while it replays its journal, while its queue is
// saturated, or while its journal or disk cache is failing to write.
// Liveness (/healthz) stays 200 throughout: the process is healthy,
// just not ready.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	ok, reason := s.Ready()
	status := http.StatusOK
	if !ok {
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", retryAfterValue(s.RetryAfter()))
	}
	writeJSON(w, status, ReadyResponse{Ready: ok, Reason: reason})
}

// retryAfterValue renders a duration as the whole-second Retry-After
// header value.
func retryAfterValue(d time.Duration) string {
	return strconv.FormatInt(int64(d/time.Second), 10)
}

// writeJSON renders v with a trailing newline.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	data, err := json.Marshal(v)
	if err != nil {
		// Should be unreachable: every payload type here marshals.
		fmt.Fprintf(w, "{\"error\":%q}\n", err.Error())
		return
	}
	w.Write(append(data, '\n'))
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// maxBodyBytes bounds every POST body. The shipped scenario and
// campaign files are under 1 KiB each; 1 MiB leaves wide headroom for
// long axis value lists while keeping one request from buffering
// unbounded input.
const maxBodyBytes = 1 << 20

// decodeBody decodes the request's JSON body into v, rejecting unknown
// fields, and writes the error response itself on failure (ok=false):
// 413 for a body over maxBodyBytes, 400 for anything else.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) (ok bool) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, fmt.Errorf("serve: decode request: %w", err))
		return false
	}
	return true
}

// decodeSpecRequest reads a SubmitRequest body and parses its spec,
// writing the 400 (or 413) itself on any failure (ok=false). Shared by
// the submit and predict handlers so the two surfaces cannot drift.
func decodeSpecRequest(w http.ResponseWriter, r *http.Request) (spec scenario.Spec, req SubmitRequest, ok bool) {
	if !decodeBody(w, r, &req) {
		return scenario.Spec{}, req, false
	}
	if len(req.Spec) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("serve: missing \"spec\""))
		return scenario.Spec{}, req, false
	}
	spec, err := scenario.Parse(req.Spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return scenario.Spec{}, req, false
	}
	return spec, req, true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, req, ok := decodeSpecRequest(w, r)
	if !ok {
		return
	}
	reps := req.Reps
	if reps == 0 {
		reps = 10
	}
	timeout, err := requestTimeout(req.TimeoutS)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j, cached, coalesced, err := s.SubmitTimeout(spec, reps, timeout)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", retryAfterValue(s.RetryAfter()))
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	status := http.StatusAccepted
	if cached {
		status = http.StatusOK
	}
	writeJSON(w, status, SubmitResponse{
		ID: j.ID(), Key: j.Key(), State: j.Status().State,
		Cached: cached, Coalesced: coalesced,
	})
}

// handlePredict is the synchronous analytic endpoint: the submitted
// spec is forced onto the model engine and answered in-request —
// microseconds when solving, sub-millisecond end to end on a cache hit.
// The body reuses SubmitRequest; Reps is ignored (model studies always
// collapse to one deterministic evaluation). The response is the same
// Result JSON a model-engine job's /result endpoint serves —
// byte-identical, since both paths share one cache entry — and
// ?format=text returns the `sim1901 -scenario -engine model` rendering.
// An X-Cache header reports hit/miss.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	spec, _, ok := decodeSpecRequest(w, r)
	if !ok {
		return
	}
	data, text, cached, err := s.Predict(spec)
	switch {
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if cached {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte(text))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// requestTimeout validates and converts a request's timeout_s.
func requestTimeout(secs float64) (time.Duration, error) {
	if secs < 0 {
		return 0, fmt.Errorf("serve: \"timeout_s\" = %g must be ≥ 0", secs)
	}
	return time.Duration(secs * float64(time.Second)), nil
}

// CampaignRequest is the POST /v1/campaigns body.
type CampaignRequest struct {
	// Campaign is the campaign to run (same schema as the files under
	// examples/campaigns/; unknown fields are rejected).
	Campaign json.RawMessage `json:"campaign"`
	// TimeoutS bounds the campaign's running time in seconds, capped by
	// the server's -job-timeout. 0 (or absent) inherits the server
	// limit.
	TimeoutS float64 `json:"timeout_s,omitempty"`
}

// handleSubmitCampaign admits a campaign onto the job queue. The
// response mirrors POST /v1/jobs; an X-Cache header reports whether
// the whole campaign was answered from the result cache.
func (s *Server) handleSubmitCampaign(w http.ResponseWriter, r *http.Request) {
	var req CampaignRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Campaign) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("serve: missing \"campaign\""))
		return
	}
	spec, err := campaign.Parse(req.Campaign)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	timeout, err := requestTimeout(req.TimeoutS)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j, cached, coalesced, err := s.SubmitCampaignTimeout(spec, timeout)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", retryAfterValue(s.RetryAfter()))
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	status := http.StatusAccepted
	if cached {
		status = http.StatusOK
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	writeJSON(w, status, SubmitResponse{
		ID: j.ID(), Key: j.Key(), State: j.Status().State,
		Cached: cached, Coalesced: coalesced,
	})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.listStatuses(false))
}

func (s *Server) handleListCampaigns(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.listStatuses(true))
}

// listStatuses snapshots every job of one kind in submission order.
func (s *Server) listStatuses(campaigns bool) []Status {
	out := []Status{}
	for _, j := range s.Jobs() {
		if j.IsCampaign() == campaigns {
			out = append(out, j.Status())
		}
	}
	return out
}

// job resolves {id} or writes a 404. Scenario jobs answer only under
// /v1/jobs and campaigns only under /v1/campaigns — the two surfaces
// share one registry but stay distinct for clients.
func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	wantCampaign := strings.HasPrefix(r.URL.Path, "/v1/campaigns/")
	j, ok := s.Job(id)
	if ok && j.IsCampaign() != wantCampaign {
		ok = false
	}
	if !ok {
		kind := "job"
		if wantCampaign {
			kind = "campaign"
		}
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown %s %q", kind, id))
	}
	return j, ok
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	st := j.Status()
	switch st.State {
	case StateDone:
	case StateFailed:
		writeError(w, http.StatusInternalServerError, fmt.Errorf("serve: job %s failed: %s", st.ID, st.Error))
		return
	case StateCancelled:
		writeError(w, http.StatusGone, fmt.Errorf("serve: job %s was cancelled", st.ID))
		return
	case StateTimedOut:
		writeError(w, http.StatusGatewayTimeout, fmt.Errorf("serve: job %s timed out: %s", st.ID, st.Error))
		return
	default:
		// Not finished; tell the client where it stands.
		writeJSON(w, http.StatusConflict, st)
		return
	}
	data, text, _ := j.Result()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte(text))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	c, entries := s.Stats()
	resp := StatsResponse{
		Counters:       c,
		CacheEntries:   entries,
		CacheBytes:     s.cache.bytesUsed(),
		DiskCacheBytes: s.cache.diskBytes(),
	}
	if s.journal != nil {
		resp.JournalLiveRecords = s.journal.liveCount()
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleEvents streams the job's lifecycle as NDJSON, one Event per
// line: an initial "state" snapshot, a "progress" line per completed
// replication, a "state" line on every transition, ending with the
// terminal state. The stream also ends when the client disconnects.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(e Event) bool {
		if err := enc.Encode(e); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	for e := range j.events(r.Context()) {
		if !emit(e) {
			return
		}
	}
}

// events returns a channel of state/progress events, starting with a
// snapshot and closed after the terminal event (or when ctx ends). A
// slow consumer blocks the sender goroutine, not the job: the job only
// broadcasts on its cond; the goroutine re-snapshots when it wakes, so
// missed intermediate progress values collapse into the latest one.
func (j *Job) events(ctx context.Context) <-chan Event {
	ch := make(chan Event)
	go func() {
		defer close(ch)
		stop := context.AfterFunc(ctx, func() {
			j.mu.Lock()
			j.cond.Broadcast()
			j.mu.Unlock()
		})
		defer stop()

		var last *Event
		for {
			j.mu.Lock()
			for ctx.Err() == nil && last != nil && j.state == last.State && j.done == last.Done && j.pointsDone == last.PointsDone {
				j.cond.Wait()
			}
			st := j.statusLocked()
			j.mu.Unlock()
			if ctx.Err() != nil {
				return
			}
			e := Event{Event: "progress", State: st.State, Done: st.Done, Total: st.Total,
				PointsDone: st.PointsDone, PointsTotal: st.PointsTotal, Error: st.Error}
			if last == nil || st.State != last.State {
				e.Event = "state"
			}
			if e.State.Terminal() {
				// The stream's last line carries the full timeline, so a
				// client that only followed events still gets the trace.
				e.Trace = st.Trace
			}
			select {
			case ch <- e:
			case <-ctx.Done():
				return
			}
			last = &e
			if e.State.Terminal() {
				return
			}
		}
	}()
	return ch
}
