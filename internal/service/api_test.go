package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fun3d/internal/core"
)

func startServer(t *testing.T, cfg EngineConfig) (*Engine, *httptest.Server) {
	t.Helper()
	e := NewEngine(cfg)
	srv := httptest.NewServer(e.Handler())
	t.Cleanup(func() {
		srv.Close()
		e.Close()
	})
	return e, srv
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func pollJob(t *testing.T, base, id string, want JobState, timeout time.Duration) jobJSON {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		j := decode[jobJSON](t, resp)
		if j.State == want || time.Now().After(deadline) {
			return j
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestAPILifecycle drives the happy path over real HTTP: submit, poll,
// stream the residual history while the job runs, observe completion.
func TestAPILifecycle(t *testing.T) {
	_, srv := startServer(t, EngineConfig{
		Mesh:          testSpec(),
		Solver:        testConfig(2),
		MaxConcurrent: 1,
	})

	resp := postJSON(t, srv.URL+"/v1/jobs", JobRequest{AlphaDeg: 3.06, MaxSteps: 5, RelTol: 1e-30})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d, want 202", resp.StatusCode)
	}
	sub := decode[jobJSON](t, resp)
	if sub.ID == "" || (sub.State != StateQueued && sub.State != StateRunning) {
		t.Fatalf("submit response: %+v", sub)
	}

	// Stream the history concurrently with the solve.
	histResp, err := http.Get(srv.URL + "/v1/jobs/" + sub.ID + "/history")
	if err != nil {
		t.Fatal(err)
	}
	defer histResp.Body.Close()
	if ct := histResp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("history content-type %q", ct)
	}
	var stepLines []stepJSON
	var final jobJSON
	sc := bufio.NewScanner(histResp.Body)
	for sc.Scan() {
		line := sc.Bytes()
		var s stepJSON
		if err := json.Unmarshal(line, &s); err == nil && s.Step > 0 {
			stepLines = append(stepLines, s)
			continue
		}
		if err := json.Unmarshal(line, &final); err != nil {
			t.Fatalf("unparseable history line %q: %v", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(stepLines) != 5 {
		t.Fatalf("streamed %d steps, want 5", len(stepLines))
	}
	for i, s := range stepLines {
		if s.Step != i+1 || s.RNorm <= 0 {
			t.Fatalf("bad streamed step %d: %+v", i, s)
		}
	}
	if final.State != StateDone || final.Result == nil || final.Result.Steps != 5 {
		t.Fatalf("final history line: %+v", final)
	}

	st := pollJob(t, srv.URL, sub.ID, StateDone, 30*time.Second)
	if st.State != StateDone || st.Result == nil || !(st.Result.RNormFinal > 0) {
		t.Fatalf("status after done: %+v", st)
	}

	// Listing includes the job.
	resp, err = http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	if list := decode[[]jobJSON](t, resp); len(list) != 1 || list[0].ID != sub.ID {
		t.Fatalf("job list: %+v", list)
	}

	// Health and stats respond.
	resp, err = http.Get(srv.URL + "/v1/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	resp, err = http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats := decode[EngineStats](t, resp)
	if stats.Done != 1 || stats.Cache.Builds != 1 {
		t.Fatalf("stats: %+v", stats)
	}
}

// TestAPICancelReleasesInstance cancels a solve mid-flight (pinned at step
// 2 by the AfterStep hook) and verifies the solver instance went back to
// the pool: gets == puts once the job is canceled.
func TestAPICancelReleasesInstance(t *testing.T) {
	canceling := make(chan struct{})
	canceled := make(chan struct{})
	var once sync.Once
	e, srv := startServer(t, EngineConfig{
		Mesh:          testSpec(),
		Solver:        testConfig(1),
		MaxConcurrent: 1,
		Hooks: Hooks{AfterStep: func(id string, step int) {
			if step == 2 {
				once.Do(func() {
					close(canceling)
					<-canceled // hold the solve until DELETE lands
				})
			}
		}},
	})

	sub := decode[jobJSON](t, postJSON(t, srv.URL+"/v1/jobs", JobRequest{AlphaDeg: 1, MaxSteps: 500, RelTol: 1e-30}))
	<-canceling
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+sub.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: %d, want 202", resp.StatusCode)
	}
	resp.Body.Close()
	close(canceled)

	st := pollJob(t, srv.URL, sub.ID, StateCanceled, 30*time.Second)
	if st.State != StateCanceled {
		t.Fatalf("job state %s, want canceled", st.State)
	}
	// The instance must be back in the pool (and the engine must report a
	// balanced pool) shortly after cancellation is observed.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var total PoolStats
		for _, p := range e.Stats().Pools {
			total.Gets += p.Gets
			total.Puts += p.Puts
			total.Live += p.Live
		}
		if total.Gets == total.Puts && total.Live == 0 && total.Gets > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("canceled job never released its instance: %+v", total)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestAPIQueueFull fills the queue behind a held solve and expects 429 with
// Retry-After on the next submission.
func TestAPIQueueFull(t *testing.T) {
	hold := make(chan struct{})
	var once sync.Once
	_, srv := startServer(t, EngineConfig{
		Mesh:          testSpec(),
		Solver:        testConfig(1),
		MaxConcurrent: 1,
		QueueDepth:    2,
		RetryAfter:    3 * time.Second,
		Hooks: Hooks{BeforeSolve: func(string) {
			once.Do(func() { <-hold })
		}},
	})
	defer close(hold)

	// First job is dequeued and parked in BeforeSolve; the next two fill
	// the queue; the fourth must bounce.
	var ids []string
	for i := 0; i < 3; i++ {
		resp := postJSON(t, srv.URL+"/v1/jobs", JobRequest{AlphaDeg: float64(i), MaxSteps: 2})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d, want 202", i, resp.StatusCode)
		}
		j := decode[jobJSON](t, resp)
		ids = append(ids, j.ID)
		if i == 0 {
			// Wait for the worker to park so the queue is empty again.
			pollJob(t, srv.URL, j.ID, StateRunning, 10*time.Second)
		}
	}
	resp := postJSON(t, srv.URL+"/v1/jobs", JobRequest{AlphaDeg: 9, MaxSteps: 2})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After %q, want \"3\"", ra)
	}
	var apiErr map[string]string
	json.NewDecoder(resp.Body).Decode(&apiErr)
	resp.Body.Close()
	if !strings.Contains(apiErr["error"], "queue full") {
		t.Fatalf("429 body: %v", apiErr)
	}

	// Release the held solve; everything drains.
	hold <- struct{}{}
	for _, id := range ids {
		if st := pollJob(t, srv.URL, id, StateDone, 60*time.Second); st.State != StateDone {
			t.Fatalf("job %s ended %s, want done", id, st.State)
		}
	}
}

// TestAPIOversizeBody: a request body over maxRequestBytes is refused with
// 413 on both submit endpoints, and no job is enqueued.
func TestAPIOversizeBody(t *testing.T) {
	e, srv := startServer(t, EngineConfig{
		Mesh:          testSpec(),
		Solver:        testConfig(1),
		MaxConcurrent: 1,
	})
	// Valid JSON whose unknown field pushes it past the limit, so only the
	// size can be the reason for the refusal.
	body := `{"alpha_deg": 1, "alphas": [1], "pad": "` + strings.Repeat("x", maxRequestBytes) + `"}`
	for _, path := range []string{"/v1/jobs", "/v1/polar"} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		apiErr := decode[map[string]string](t, resp)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("POST %s with a %d-byte body: %d %v, want 413", path, len(body), resp.StatusCode, apiErr)
		}
	}
	if jobs := e.Jobs(); len(jobs) != 0 {
		t.Fatalf("%d jobs after oversize submits, want 0", len(jobs))
	}
	if st := e.Stats(); st.Queued != 0 || st.Running != 0 {
		t.Fatalf("stats after oversize submits: %+v, want nothing queued or running", st)
	}
}

// TestAPIEvictResume exercises eviction and resume over HTTP and checks the
// stitched trajectory against an uninterrupted isolated solve.
func TestAPIEvictResume(t *testing.T) {
	cfg := testConfig(2)
	cfg.AlphaDeg = 3.06
	app, err := core.NewApp(mustMesh(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	opt := solveOpt(8)
	opt.RelTol = 1e-30
	want, err := app.Run(opt)
	app.Close()
	if err != nil {
		t.Fatal(err)
	}

	var srvURL string
	var once sync.Once
	evictDone := make(chan struct{})
	_, srv := startServer(t, EngineConfig{
		Mesh:          testSpec(),
		Solver:        testConfig(2),
		MaxConcurrent: 1,
		Hooks: Hooks{AfterStep: func(id string, step int) {
			if step == 3 {
				once.Do(func() {
					resp, err := http.Post(srvURL+"/v1/jobs/"+id+"/evict", "application/json", nil)
					if err != nil {
						t.Errorf("evict: %v", err)
						return
					}
					if resp.StatusCode != http.StatusAccepted {
						t.Errorf("evict: %d, want 202", resp.StatusCode)
					}
					resp.Body.Close()
					close(evictDone)
				})
			}
		}},
	})
	srvURL = srv.URL

	sub := decode[jobJSON](t, postJSON(t, srv.URL+"/v1/jobs", JobRequest{AlphaDeg: 3.06, MaxSteps: 8, RelTol: 1e-30}))
	<-evictDone
	if st := pollJob(t, srv.URL, sub.ID, StateEvicted, 30*time.Second); st.State != StateEvicted || st.Steps != 3 {
		t.Fatalf("after evict: %+v", st)
	}

	resp, err := http.Post(srv.URL+"/v1/jobs/"+sub.ID+"/resume", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resume: %d, want 202", resp.StatusCode)
	}
	resp.Body.Close()
	if st := pollJob(t, srv.URL, sub.ID, StateDone, 60*time.Second); st.State != StateDone {
		t.Fatalf("after resume: %+v", st)
	}

	// Full history over HTTP must match the uninterrupted run bit for bit.
	histResp, err := http.Get(srv.URL + "/v1/jobs/" + sub.ID + "/history")
	if err != nil {
		t.Fatal(err)
	}
	defer histResp.Body.Close()
	var steps []stepJSON
	sc := bufio.NewScanner(histResp.Body)
	for sc.Scan() {
		var s stepJSON
		if err := json.Unmarshal(sc.Bytes(), &s); err == nil && s.Step > 0 {
			steps = append(steps, s)
		}
	}
	if len(steps) != len(want.History.Steps) {
		t.Fatalf("stitched history has %d steps, want %d", len(steps), len(want.History.Steps))
	}
	for k, s := range steps {
		w := want.History.Steps[k]
		if s.Step != w.Step || s.RNorm != w.RNorm || s.CFL != w.CFL || s.LinearIters != w.LinearIters {
			t.Fatalf("step %d differs from uninterrupted run: %+v vs %+v", k+1, s, w)
		}
	}
}

// TestAPIPolar submits a polar sweep batch and verifies all angles complete
// over one shared artifact.
func TestAPIPolar(t *testing.T) {
	e, srv := startServer(t, EngineConfig{
		Mesh:          testSpec(),
		Solver:        testConfig(2),
		MaxConcurrent: 2,
		QueueDepth:    8,
	})

	resp := postJSON(t, srv.URL+"/v1/polar", map[string]any{
		"alphas":   []float64{0, 1, 2, 3},
		"defaults": JobRequest{MaxSteps: 4},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("polar: %d, want 202", resp.StatusCode)
	}
	pr := decode[polarResponse](t, resp)
	if len(pr.IDs) != 4 || pr.Rejected != 0 {
		t.Fatalf("polar response: %+v", pr)
	}
	for _, id := range pr.IDs {
		if st := pollJob(t, srv.URL, id, StateDone, 60*time.Second); st.State != StateDone {
			t.Fatalf("polar job %s ended %s", id, st.State)
		}
	}
	if st := e.Cache().Stats(); st.Builds != 1 {
		t.Fatalf("polar sweep built %d artifacts, want 1", st.Builds)
	}
}
