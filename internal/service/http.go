package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"resilientfusion/fusionclient"
	"resilientfusion/internal/core"
	"resilientfusion/internal/hsi"
	"resilientfusion/internal/scene"
)

// maxCubeBytes bounds an uploaded cube (512 MiB of HSIC). A variable so
// tests can exercise the limit without half-gigabyte uploads.
var maxCubeBytes int64 = 512 << 20

// statusJSON encodes a job snapshot as the v2 job resource. The
// composite image is a separate artifact (GET /v2/jobs/{id}/result with
// Accept: image/png): it dominates the response size.
func statusJSON(st JobStatus) *fusionclient.Job {
	out := &fusionclient.Job{
		ID:        st.ID,
		State:     st.State,
		SceneID:   st.SceneID,
		CacheHit:  st.CacheHit,
		Progress:  st.Progress,
		Submitted: st.Submitted,
	}
	if st.Err != nil {
		out.Error = st.Err.Error()
	}
	if st.Options.Workers > 0 {
		out.Options = jobOptions(st.Options)
	}
	if len(st.Trace) > 0 {
		out.Trace = make(map[string]fusionclient.StageSummary, len(st.Trace))
		for stage, sum := range st.Trace {
			out.Trace[stage] = fusionclient.StageSummary(sum)
		}
	}
	if !st.Started.IsZero() {
		t := st.Started
		out.Started = &t
	}
	if !st.Finished.IsZero() {
		t := st.Finished
		out.Finished = &t
	}
	if st.Result != nil {
		out.Result = &fusionclient.ResultSummary{
			UniqueSetSize: st.Result.UniqueSetSize,
			SubCubes:      st.Result.SubCubes,
			Reissues:      st.Result.Reissues,
			CacheMisses:   st.Result.CacheMisses,
			Eigenvalues:   st.Result.Eigenvalues,
			PhaseTimes:    fusionclient.PhaseTimes(st.Result.Times),
		}
	}
	return out
}

// queryKeys validates a query against the allowed keys — unknown and
// duplicated keys are rejected rather than ignored (a typo like
// ?wiat=30s must fail loudly, not silently skip the long-poll) — and
// the keys come back sorted, so multi-error requests fail on a
// deterministic key.
func queryKeys(q map[string][]string, allowed ...string) ([]string, error) {
	keys := make([]string, 0, len(q))
	for key := range q {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if len(q[key]) > 1 {
			return nil, fmt.Errorf("option %q given %d times", key, len(q[key]))
		}
		if len(allowed) == 0 {
			return nil, fmt.Errorf("unknown option %q (this endpoint takes no query parameters)", key)
		}
		if !slices.Contains(allowed, key) {
			return nil, fmt.Errorf("unknown option %q (valid: %s)", key, strings.Join(allowed, ", "))
		}
	}
	return keys, nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// Handler exposes the pool as the HTTP API specified in
// docs/openapi.yaml. Errors travel in a structured envelope
// {"error": {"code", "message"}} with stable machine-readable codes
// (apierror.go); job options are JSON bodies decoded into
// fusionclient.Options, and every body is encoded from fusionclient's
// types;
// cube and scene fusions are one job resource with listing,
// canonical-options echo, long-poll (?wait=, capped by
// Config.MaxLongPoll), and a content-negotiated result artifact.
func (p *Pool) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v2/jobs", p.handleSubmitJob)
	mux.HandleFunc("GET /v2/jobs", p.handleListJobs)
	mux.HandleFunc("GET /v2/jobs/{id}", p.handleGetJob)
	mux.HandleFunc("DELETE /v2/jobs/{id}", p.handleCancelJob)
	mux.HandleFunc("GET /v2/jobs/{id}/result", p.handleJobResult)
	mux.HandleFunc("GET /v2/jobs/{id}/trace", p.handleJobTrace)
	mux.HandleFunc("GET /v2/stats", func(w http.ResponseWriter, r *http.Request) {
		if !noQuery(w, r) {
			return
		}
		writeJSON(w, http.StatusOK, p.Stats())
	})
	mux.HandleFunc("POST /v2/scenes", p.handleRegisterScene)
	mux.HandleFunc("GET /v2/scenes", func(w http.ResponseWriter, r *http.Request) {
		if !noQuery(w, r) {
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"scenes": p.Scenes()})
	})
	mux.HandleFunc("GET /v2/scenes/{id}", func(w http.ResponseWriter, r *http.Request) {
		if !noQuery(w, r) {
			return
		}
		info, err := p.Scene(r.PathValue("id"))
		if err != nil {
			writeAPIError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	})
	mux.HandleFunc("DELETE /v2/scenes/{id}", func(w http.ResponseWriter, r *http.Request) {
		if !noQuery(w, r) {
			return
		}
		if err := p.RemoveScene(r.PathValue("id")); err != nil {
			writeAPIError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /v2/scenes/{id}/fuse", p.handleFuseScene)
	mux.Handle("GET /metrics", p.metrics.reg.Handler())
	// Every route, /metrics included, reports into the route×status
	// latency histogram.
	return p.httpMiddleware(mux)
}

// noQuery rejects any query parameter on endpoints that take none —
// the same no-silent-typos rule the option-bearing endpoints enforce.
// It reports whether the handler may proceed.
func noQuery(w http.ResponseWriter, r *http.Request) bool {
	if _, err := queryKeys(r.URL.Query()); err != nil {
		writeAPIErrorCode(w, http.StatusBadRequest, fusionclient.CodeBadOption, err.Error())
		return false
	}
	return true
}

// handleSubmitJob accepts a multipart submission: an optional "options" part
// holding the fusionclient.Options JSON body, then a "cube" part streaming the
// HSIC-encoded cube.
func (p *Pool) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	// Options travel in the body; a query-string ?threshold=... here
	// would otherwise be dropped silently.
	if !noQuery(w, r) {
		return
	}
	mr, err := r.MultipartReader()
	if err != nil {
		writeAPIErrorCode(w, http.StatusBadRequest, fusionclient.CodeBadPayload,
			fmt.Sprintf("multipart body required: %v", err))
		return
	}
	part, err := mr.NextPart()
	if err != nil {
		writeAPIErrorCode(w, http.StatusBadRequest, fusionclient.CodeBadPayload,
			`multipart needs an optional "options" part then a "cube" part`)
		return
	}
	var opts core.Options
	if part.FormName() == "options" {
		opts, err = decodeOptionsBody(part)
		if err != nil {
			writeAPIErrorCode(w, http.StatusBadRequest, fusionclient.CodeBadOption, err.Error())
			return
		}
		if part, err = mr.NextPart(); err != nil {
			writeAPIErrorCode(w, http.StatusBadRequest, fusionclient.CodeBadPayload,
				`"cube" part missing after "options"`)
			return
		}
	}
	if part.FormName() != "cube" {
		writeAPIErrorCode(w, http.StatusBadRequest, fusionclient.CodeBadPayload,
			fmt.Sprintf(`unexpected multipart part %q (want "cube")`, part.FormName()))
		return
	}
	// ReadCubeLimit bounds the upload by the header's claimed dimensions
	// before allocating (a 20-byte request must not demand a terabyte)
	// and then reads exactly the claimed bytes, so no separate body cap
	// is needed.
	cube, err := hsi.ReadCubeLimit(part, maxCubeBytes)
	if err != nil {
		if errors.Is(err, hsi.ErrCubeTooLarge) {
			writeAPIErrorCode(w, http.StatusRequestEntityTooLarge, fusionclient.CodePayloadTooLarge,
				fmt.Sprintf("cube exceeds the %d-byte upload limit", maxCubeBytes))
			return
		}
		writeAPIErrorCode(w, http.StatusBadRequest, fusionclient.CodeBadPayload,
			fmt.Sprintf("decoding cube: %v", err))
		return
	}
	// Multipart form fields are unordered in general; a part trailing
	// the cube (an out-of-place "options", say) would otherwise be
	// dropped silently — the exact failure mode unknown query keys and
	// unknown JSON fields are rejected to prevent.
	if extra, err := mr.NextPart(); err == nil {
		writeAPIErrorCode(w, http.StatusBadRequest, fusionclient.CodeBadPayload,
			fmt.Sprintf(`unexpected multipart part %q after "cube" (options must precede the cube)`, extra.FormName()))
		return
	} else if !errors.Is(err, io.EOF) {
		writeAPIErrorCode(w, http.StatusBadRequest, fusionclient.CodeBadPayload,
			fmt.Sprintf("reading multipart body: %v", err))
		return
	}
	st, err := p.Submit(cube, opts)
	if err != nil {
		writeAPIError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, statusJSON(st))
}

// handleListJobs serves the job listing, newest submission first.
func (p *Pool) handleListJobs(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var state JobState
	limit := 100
	keys, err := queryKeys(q, "state", "limit")
	if err != nil {
		writeAPIErrorCode(w, http.StatusBadRequest, fusionclient.CodeBadOption, err.Error())
		return
	}
	for _, key := range keys {
		switch key {
		case "state":
			switch s := JobState(q.Get(key)); s {
			case StateQueued, StateRunning, StateDone, StateFailed, StateCanceled:
				state = s
			default:
				writeAPIErrorCode(w, http.StatusBadRequest, fusionclient.CodeBadOption,
					fmt.Sprintf("unknown state %q (valid: queued, running, done, failed, canceled)", q.Get(key)))
				return
			}
		case "limit":
			v, err := strconv.Atoi(q.Get(key))
			if err != nil || v < 1 {
				writeAPIErrorCode(w, http.StatusBadRequest, fusionclient.CodeBadOption,
					fmt.Sprintf("bad limit %q", q.Get(key)))
				return
			}
			limit = v
		}
	}
	statuses := p.Jobs(state, limit)
	jobs := make([]*fusionclient.Job, len(statuses))
	for i, st := range statuses {
		jobs[i] = statusJSON(st)
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": jobs})
}

// handleGetJob serves a job resource, long-polling when ?wait= is given: the
// response carries a terminal state unless the wait (trimmed to the
// server cap) elapsed first, so clients need no status-poll loops.
func (p *Pool) handleGetJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	q := r.URL.Query()
	if _, err := queryKeys(q, "wait"); err != nil {
		writeAPIErrorCode(w, http.StatusBadRequest, fusionclient.CodeBadOption, err.Error())
		return
	}
	if !q.Has("wait") {
		st, err := p.Status(id)
		if err != nil {
			writeAPIError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, statusJSON(st))
		return
	}
	// A present-but-empty value ("?wait=", a lost shell variable) is a
	// bad value, not an absent knob: it fails the parse below.
	waitStr := q.Get("wait")
	d, err := time.ParseDuration(waitStr)
	if err != nil || d <= 0 {
		writeAPIErrorCode(w, http.StatusBadRequest, fusionclient.CodeBadOption,
			fmt.Sprintf("bad wait %q (want a positive duration like 30s)", waitStr))
		return
	}
	if d > p.cfg.MaxLongPoll {
		d = p.cfg.MaxLongPoll
	}
	// Count a park only when the wait will actually block on a
	// non-terminal job (the common fast path — polling a finished job —
	// is not a park).
	if st, err := p.Status(id); err == nil && !st.State.Terminal() {
		p.metrics.longpollParks.Inc()
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	defer cancel()
	st, err := p.WaitContext(ctx, id)
	switch {
	case err == nil, errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		// Terminal, the wait elapsed, or the request context was torn
		// down (server draining — see fusiond's BaseContext — or the
		// client went away, where the write just fails silently): the
		// current snapshot is the answer and a live client decides
		// whether to long-poll again.
		writeJSON(w, http.StatusOK, statusJSON(st))
	default:
		writeAPIError(w, err)
	}
}

// handleCancelJob withdraws a queued job, returning the canceled resource.
func (p *Pool) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	if !noQuery(w, r) {
		return
	}
	st, err := p.Cancel(r.PathValue("id"))
	if err != nil {
		writeAPIError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, statusJSON(st))
}

// handleJobResult serves a finished job's artifact with content negotiation:
// image/png when the Accept header asks for it, the JSON result summary
// otherwise.
func (p *Pool) handleJobResult(w http.ResponseWriter, r *http.Request) {
	if !noQuery(w, r) {
		return
	}
	id := r.PathValue("id")
	st, err := p.Status(id)
	if err != nil {
		writeAPIError(w, err)
		return
	}
	switch st.State {
	case StateFailed:
		writeAPIErrorCode(w, http.StatusConflict, fusionclient.CodeJobFailed,
			fmt.Sprintf("job %s failed: %v", id, st.Err))
		return
	case StateDone:
	default:
		writeAPIErrorCode(w, http.StatusConflict, fusionclient.CodeJobNotFinished,
			fmt.Sprintf("job %s is %s", id, st.State))
		return
	}
	if acceptsPNG(r.Header.Get("Accept")) {
		data, err := p.ImagePNG(id)
		if err != nil {
			writeAPIError(w, err)
			return
		}
		w.Header().Set("Content-Type", "image/png")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(data)
		return
	}
	body := statusJSON(st)
	writeJSON(w, http.StatusOK, body.Result)
}

// handleJobTrace serves the job's recorded stage-span timeline.
func (p *Pool) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	if !noQuery(w, r) {
		return
	}
	tr, err := p.Trace(r.PathValue("id"))
	if err != nil {
		writeAPIError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, tr)
}

// acceptsPNG reports whether an Accept header asks for the composite
// image rather than the JSON summary. This is a deliberate two-outcome
// rule, not full RFC 9110 ranking: naming image/png (or image/*) with
// any nonzero quality opts in, a q=0 refusal opts out, and a bare */*
// (or no header) keeps the JSON default — programs must opt in to
// image bytes.
func acceptsPNG(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		params := strings.Split(part, ";")
		// Media types and parameter names are case-insensitive (RFC
		// 9110 §8.3.1).
		mt := strings.TrimSpace(params[0])
		if !strings.EqualFold(mt, "image/png") && !strings.EqualFold(mt, "image/*") {
			continue
		}
		refused := false
		for _, param := range params[1:] {
			if k, v, ok := strings.Cut(strings.TrimSpace(param), "="); ok && strings.EqualFold(strings.TrimSpace(k), "q") {
				if q, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil && q == 0 {
					refused = true
				}
			}
		}
		if !refused {
			return true
		}
	}
	return false
}

// handleRegisterScene registers a scene from the two-part multipart
// upload: a "header" part of ENVI header text, then a "data" part
// streaming the raw payload. The header part is read fully (it is a page
// of text); the data part flows straight to the spool.
func (p *Pool) handleRegisterScene(w http.ResponseWriter, r *http.Request) {
	if !noQuery(w, r) {
		return
	}
	badPayload := func(msg string) {
		writeAPIErrorCode(w, http.StatusBadRequest, fusionclient.CodeBadPayload, msg)
	}
	mr, err := r.MultipartReader()
	if err != nil {
		badPayload(fmt.Sprintf("multipart body required: %v", err))
		return
	}
	hdrPart, err := mr.NextPart()
	if err != nil || hdrPart.FormName() != "header" {
		badPayload(`first multipart part must be "header" (ENVI header text)`)
		return
	}
	// An ENVI header is a page of text; 1 MiB is generous.
	hdrText, err := io.ReadAll(io.LimitReader(hdrPart, 1<<20))
	if err != nil {
		badPayload(fmt.Sprintf("reading header part: %v", err))
		return
	}
	dataPart, err := mr.NextPart()
	if err != nil || dataPart.FormName() != "data" {
		badPayload(`second multipart part must be "data" (raw scene payload)`)
		return
	}
	info, err := p.RegisterScene(string(hdrText), dataPart)
	switch {
	case errors.Is(err, scene.ErrHeader):
		// A bad ENVI header is client-caused. Anything else unmapped
		// (spool I/O, say) is a genuine server fault and must stay a
		// 5xx so machine clients retry instead of concluding their
		// upload is malformed.
		badPayload(err.Error())
	case err != nil:
		writeAPIError(w, err)
	default:
		writeJSON(w, http.StatusCreated, info)
	}
}

// handleFuseScene enqueues a whole-scene fusion with a JSON options body
// (empty body selects the pool defaults).
func (p *Pool) handleFuseScene(w http.ResponseWriter, r *http.Request) {
	// Options travel in the JSON body; a query-string ?threshold=...
	// here would otherwise be dropped silently.
	if !noQuery(w, r) {
		return
	}
	opts, err := decodeOptionsBody(r.Body)
	if err != nil {
		writeAPIErrorCode(w, http.StatusBadRequest, fusionclient.CodeBadOption, err.Error())
		return
	}
	st, err := p.FuseScene(r.PathValue("id"), opts)
	if err != nil {
		writeAPIError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, statusJSON(st))
}
