package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"fun3d/internal/newton"
)

// jobJSON is the wire representation of a job's status.
type jobJSON struct {
	ID       string     `json:"id"`
	State    JobState   `json:"state"`
	AlphaDeg float64    `json:"alpha_deg"`
	Steps    int        `json:"steps"`
	Error    string     `json:"error,omitempty"`
	Result   *JobResult `json:"result,omitempty"`
}

func jobStatus(j *Job) jobJSON {
	state, errStr, result, steps := j.Snapshot()
	out := jobJSON{ID: j.ID, State: state, AlphaDeg: j.req.AlphaDeg, Steps: steps, Error: errStr}
	if state == StateDone {
		r := result
		out.Result = &r
	}
	return out
}

// stepJSON is one streamed residual-history record.
type stepJSON struct {
	Step        int     `json:"step"`
	RNorm       float64 `json:"rnorm"`
	CFL         float64 `json:"cfl"`
	LinearIters int     `json:"linear_iters"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// Handler returns the engine's HTTP API:
//
//	POST   /v1/jobs              submit a solve            -> 202 / 429+Retry-After
//	GET    /v1/jobs              list jobs
//	GET    /v1/jobs/{id}         job status
//	GET    /v1/jobs/{id}/history residual history, NDJSON; streams while running
//	DELETE /v1/jobs/{id}         cancel
//	POST   /v1/jobs/{id}/evict   checkpoint + release the running solve
//	POST   /v1/jobs/{id}/resume  re-queue an evicted solve
//	POST   /v1/polar             submit a batch of angles over one shared mesh
//	GET    /v1/stats             engine/cache/pool counters
//	GET    /v1/healthz           liveness
func (e *Engine) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, e.Stats())
	})
	mux.HandleFunc("POST /v1/jobs", e.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		jobs := e.Jobs()
		out := make([]jobJSON, 0, len(jobs))
		for _, j := range jobs {
			out = append(out, jobStatus(j))
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, ok := e.Job(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, jobStatus(j))
	})
	mux.HandleFunc("GET /v1/jobs/{id}/history", e.handleHistory)
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := e.Cancel(r.PathValue("id")); err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]string{"id": r.PathValue("id"), "state": "canceling"})
	})
	mux.HandleFunc("POST /v1/jobs/{id}/evict", func(w http.ResponseWriter, r *http.Request) {
		if err := e.Evict(r.PathValue("id")); err != nil {
			writeError(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]string{"id": r.PathValue("id"), "state": "evicting"})
	})
	mux.HandleFunc("POST /v1/jobs/{id}/resume", func(w http.ResponseWriter, r *http.Request) {
		err := e.Resume(r.PathValue("id"))
		switch {
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", retryAfterSeconds(e.cfg.RetryAfter))
			writeError(w, http.StatusTooManyRequests, err)
		case err != nil:
			writeError(w, http.StatusConflict, err)
		default:
			writeJSON(w, http.StatusAccepted, map[string]string{"id": r.PathValue("id"), "state": string(StateQueued)})
		}
	})
	mux.HandleFunc("POST /v1/polar", e.handlePolar)
	return mux
}

func retryAfterSeconds(d time.Duration) string {
	s := int(d / time.Second)
	if s < 1 {
		s = 1
	}
	return fmt.Sprintf("%d", s)
}

// maxRequestBytes bounds a JSON request body: a job or polar request is a
// few hundred bytes, and a client must not make the server buffer more.
const maxRequestBytes = 1 << 20

// decodeRequest decodes r's JSON body into v, reading at most
// maxRequestBytes. On failure it answers 413 for an oversize body, 400
// otherwise, and returns false.
func decodeRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooBig):
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
	}
	return false
}

func (e *Engine) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	j, err := e.Submit(req)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", retryAfterSeconds(e.cfg.RetryAfter))
		writeError(w, http.StatusTooManyRequests, err)
	case err != nil:
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeJSON(w, http.StatusAccepted, jobStatus(j))
	}
}

// handleHistory streams the job's residual history as NDJSON: one stepJSON
// line per completed pseudo-time step (live while the job runs), then a
// final jobJSON line when the job leaves the running state.
func (e *Engine) handleHistory(w http.ResponseWriter, r *http.Request) {
	j, ok := e.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(steps []newton.StepStats) {
		for _, s := range steps {
			enc.Encode(stepJSON{Step: s.Step, RNorm: s.RNorm, CFL: s.CFL, LinearIters: s.LinearIters})
		}
		if len(steps) > 0 && flusher != nil {
			flusher.Flush()
		}
	}
	sent := 0
	for {
		steps, more := j.StepsFrom(r.Context(), sent)
		emit(steps)
		sent += len(steps)
		if !more {
			break
		}
	}
	if r.Context().Err() == nil {
		enc.Encode(jobStatus(j))
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// polarRequest is a batch of angles of attack solved over one shared mesh:
// the service analogue of a polar sweep. Per-angle options follow Defaults.
type polarRequest struct {
	Alphas   []float64  `json:"alphas"`
	Defaults JobRequest `json:"defaults"`
}

type polarResponse struct {
	IDs      []string `json:"ids"`
	Rejected int      `json:"rejected"`
}

func (e *Engine) handlePolar(w http.ResponseWriter, r *http.Request) {
	var req polarRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	if len(req.Alphas) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("polar: empty alphas"))
		return
	}
	resp := polarResponse{}
	for _, a := range req.Alphas {
		jr := req.Defaults
		jr.AlphaDeg = a
		j, err := e.Submit(jr)
		if err != nil {
			resp.Rejected++
			continue
		}
		resp.IDs = append(resp.IDs, j.ID)
	}
	code := http.StatusAccepted
	if len(resp.IDs) == 0 {
		w.Header().Set("Retry-After", retryAfterSeconds(e.cfg.RetryAfter))
		code = http.StatusTooManyRequests
	}
	writeJSON(w, code, resp)
}
