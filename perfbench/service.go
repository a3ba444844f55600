package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fun3d/internal/core"
	"fun3d/internal/mesh"
	"fun3d/internal/newton"
	"fun3d/internal/service"
)

const (
	serviceClients = 2 // closed-loop callers, one HTTP connection each
	// jobSteps is every job's exact pseudo-time step count. Jobs ask for
	// RelTol 1e-30 so that none stops on the relative test; the absolute
	// floor of 1e-12 (newton's default, not settable per job) is reached by
	// the tiny meshes after 7 steps at CFL0 10, while after 5 their
	// residual is still about 1e-9.
	jobSteps  = 5
	polarSize = 5 // distinct angles of attack per run
	maxJobs   = 20000
)

// serviceConfig is the engine's per-solve configuration: the wing-steady
// solver at one thread, MaxConcurrent of them at a time.
func serviceConfig() core.Config { return solverConfig(1) }

// jobOpts are the options of every service job, so that each job does the
// same fixed amount of work.
var jobOpts = newton.Options{MaxSteps: jobSteps, RelTol: 1e-30, CFL0: solveOpts.CFL0}

// splitmix is the generator behind every seeded input.
func splitmix(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// polar draws the run's angles of attack in [-2, 6) degrees, to 0.01.
func polar(seed uint64) []float64 {
	out := make([]float64, polarSize)
	for i := range out {
		u := float64(splitmix(seed, uint64(i))>>11) / (1 << 53)
		out[i] = math.Round((-2+8*u)*100) / 100
	}
	return out
}

// jobPlan is job k's input: an angle from the polar and, for every 4th
// job, the second mesh spec.
type jobPlan struct {
	k       int
	alpha   float64
	specIdx int
}

func planJob(seed uint64, angles []float64, k int) jobPlan {
	p := jobPlan{k: k, alpha: angles[splitmix(seed^0x5eed, uint64(k)+1000)%uint64(len(angles))]}
	if k%4 == 3 {
		p.specIdx = 1
	}
	return p
}

// serviceRig is an engine serving its HTTP API on loopback, plus the
// client the callers share.
type serviceRig struct {
	eng    *service.Engine
	srv    *http.Server
	served chan error
	base   string
	client *http.Client
}

// startService builds the engine, warms the artifact cache and instance
// pools of both mesh specs, and starts the HTTP server.
func startService(sz sizes) (*serviceRig, error) {
	cfg := serviceConfig()
	eng := service.NewEngine(service.EngineConfig{
		Mesh:            sz.service[0],
		Solver:          cfg,
		MaxConcurrent:   serviceClients,
		QueueDepth:      16,
		DefaultMaxSteps: jobSteps,
	})
	var warm []*service.Job
	for i := range sz.service {
		if _, err := eng.Cache().Get(sz.service[i], cfg); err != nil {
			eng.Close()
			return nil, fmt.Errorf("warm mesh cache: %w", err)
		}
		for c := 0; c < serviceClients; c++ {
			j, err := eng.Submit(service.JobRequest{AlphaDeg: 0, MaxSteps: 1, Mesh: &sz.service[i]})
			if err != nil {
				eng.Close()
				return nil, fmt.Errorf("warm job: %w", err)
			}
			warm = append(warm, j)
		}
	}
	for _, j := range warm {
		if st := j.Wait(context.Background()); st != service.StateDone {
			eng.Close()
			return nil, fmt.Errorf("warm job ended %s", st)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	rig := &serviceRig{
		eng:    eng,
		srv:    &http.Server{Handler: eng.Handler(), ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: serviceClients, MaxConnsPerHost: serviceClients},
		},
	}
	go func() { rig.served <- rig.srv.Serve(ln) }()
	resp, err := rig.client.Get(rig.base + "/v1/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		rig.close()
		return nil, err
	}
	return rig, nil
}

// close stops the server (waiting for its handlers and its Serve
// goroutine), drops the client's connections and closes the engine.
func (r *serviceRig) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	r.srv.Shutdown(ctx)
	if err := <-r.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "service: serve: %v\n", err)
	}
	r.client.CloseIdleConnections()
	r.eng.Close()
}

// jobRecord is one job as its caller saw it.
type jobRecord struct {
	plan              jobPlan
	id                string
	post0, post1, fin time.Time // POST sent, POST answered, final NDJSON line read
	stepLines         int
	result            service.JobResult
	problem           string
}

// historyLine decodes either kind of NDJSON line: a step record or the
// final job status (which carries a state).
type historyLine struct {
	Step   int                `json:"step"`
	State  string             `json:"state"`
	Result *service.JobResult `json:"result"`
}

// runJob submits one job and reads its history stream to the final line.
func (r *serviceRig) runJob(sz sizes, p jobPlan) jobRecord {
	rec := jobRecord{plan: p}
	req := service.JobRequest{AlphaDeg: p.alpha, MaxSteps: jobOpts.MaxSteps, RelTol: jobOpts.RelTol, CFL0: jobOpts.CFL0}
	if p.specIdx == 1 {
		req.Mesh = &sz.service[1]
	}
	body, err := json.Marshal(req)
	if err != nil {
		rec.problem = "encode request: " + err.Error()
		return rec
	}
	rec.post0 = time.Now()
	resp, err := r.client.Post(r.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		rec.problem = "POST /v1/jobs: " + err.Error()
		return rec
	}
	var st struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	rec.post1 = time.Now()
	if resp.StatusCode != http.StatusAccepted || err != nil {
		rec.problem = fmt.Sprintf("POST /v1/jobs: %s (decode: %v)", resp.Status, err)
		return rec
	}
	rec.id = st.ID
	resp, err = r.client.Get(r.base + "/v1/jobs/" + st.ID + "/history")
	if err != nil {
		rec.problem = "GET history: " + err.Error()
		return rec
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		rec.problem = "GET history: " + resp.Status
		return rec
	}
	sc := bufio.NewScanner(resp.Body)
	var final *historyLine
	for sc.Scan() {
		var ln historyLine
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			rec.problem = "history line: " + err.Error()
			return rec
		}
		if ln.State != "" {
			rec.fin = time.Now()
			final = &ln
			break
		}
		rec.stepLines++
	}
	switch {
	case final == nil:
		rec.problem = fmt.Sprintf("history stream ended without a final line (scan: %v)", sc.Err())
	case final.State != string(service.StateDone) || final.Result == nil:
		rec.problem = fmt.Sprintf("job %s ended %s", st.ID, final.State)
	case final.Result.Steps != jobSteps || rec.stepLines != jobSteps:
		rec.problem = fmt.Sprintf("job %s took %d steps (%d streamed), want %d", st.ID, final.Result.Steps, rec.stepLines, jobSteps)
	default:
		rec.result = *final.Result
	}
	return rec
}

// servicePolar is the closed loop: serviceClients callers, each waiting on
// its own job's history before submitting the next, until at least
// sz.minJobs jobs have run and the measured time reaches seconds.
func servicePolar(w io.Writer, rep *report, sz sizes, seed uint64, seconds time.Duration, trace bool) error {
	var rig *serviceRig
	var setups []float64
	for i := 0; i < sz.setups; i++ {
		if rig != nil {
			rig.close()
			rig = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if rig, err = startService(sz); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer rig.close()
	rep.set("setup_s", median(setups))
	rep.set("live_heap_mb", liveHeapMB())
	angles := polar(seed)
	fmt.Fprintf(w, "service-polar: %d clients, MaxConcurrent %d x Threads 1, polar %v deg\n", serviceClients, serviceClients, angles)

	before := rig.eng.Stats()
	var (
		next atomic.Int64
		mu   sync.Mutex
		recs []jobRecord
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if (k >= sz.minJobs && time.Since(start) >= seconds) || k >= maxJobs {
					return
				}
				rec := rig.runJob(sz, planJob(seed, angles, k))
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	after := rig.eng.Stats()

	var lat, solve, submit, queue, run, tailMs, httpSelf []float64
	last := start
	rnorms := map[jobPlan]uint64{} // keyed by plan with k zeroed
	for _, rec := range recs {
		problem := rec.problem
		if problem == "" {
			key := rec.plan
			key.k = 0
			bits := math.Float64bits(rec.result.RNormFinal)
			if prev, ok := rnorms[key]; ok && prev != bits {
				problem = fmt.Sprintf("job %s: rnorm_final %v differs from an earlier job on the same mesh and alpha", rec.id, rec.result.RNormFinal)
			}
			rnorms[key] = bits
		}
		var sub, started, fin time.Time
		if problem == "" {
			j, ok := rig.eng.Job(rec.id)
			if !ok {
				problem = "job " + rec.id + " unknown to the engine"
			} else {
				sub, started, fin = j.Times()
			}
		}
		rep.op(problem)
		if problem != "" {
			continue
		}
		if rec.fin.After(last) {
			last = rec.fin
		}
		lat = append(lat, rec.fin.Sub(rec.post0).Seconds())
		solve = append(solve, fin.Sub(started).Seconds())
		ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
		submit = append(submit, ms(rec.post1.Sub(rec.post0)))
		queue = append(queue, ms(started.Sub(sub)))
		run = append(run, ms(fin.Sub(started)))
		tailMs = append(tailMs, ms(rec.fin.Sub(fin)))
		// The job span's children are the engine's queue and run spans.
		httpSelf = append(httpSelf, ms(selfTime(span{rec.post0, rec.fin}, []span{{sub, started}, {started, fin}})))
	}

	// Every (mesh, alpha) pair must equal a direct core.App solve.
	if err := checkAgainstDirect(rep, sz, rnorms); err != nil {
		return err
	}

	rep.set("solve_s", median(solve))
	rep.set("job_p50_s", median(lat))
	rep.set("job_p95_s", percentile(lat, 95))
	rep.set("jobs_per_s", float64(len(lat))/last.Sub(start).Seconds())
	printJobs(w, lat, len(recs))

	if !trace {
		return nil
	}
	rep.set("service.submit_ms_p50", median(submit))
	rep.set("service.queue_wait_ms_p50", median(queue))
	rep.set("service.run_ms_p50", median(run))
	rep.set("service.stream_tail_ms_p50", median(tailMs))
	rep.set("service.http_self_ms_p50", median(httpSelf))
	hits := after.Cache.Hits - before.Cache.Hits
	lookups := hits + after.Cache.Misses - before.Cache.Misses
	rep.set("service.cache_hit_ratio", float64(hits)/float64(max(lookups, 1)))
	builds := int64(0)
	for _, p := range after.Pools {
		builds += p.Builds
	}
	for _, p := range before.Pools {
		builds -= p.Builds
	}
	rep.set("service.pool_builds", float64(builds))

	// Layer trace on the default mesh at 2 threads and the polar's first
	// angle, with the jobs' options.
	cfg := solverConfig(solveThreads)
	cfg.AlphaDeg = angles[0]
	app, m, st, err := buildApp(sz.service[0], cfg)
	if err != nil {
		return err
	}
	defer app.Close()
	rep.set("mesh.generate_s", st.gen.Seconds())
	rep.set("core.artifact_s", st.art.Seconds())
	rep.set("core.new_app_s", st.app.Seconds())
	return traceLayers(w, rep, traceInput{app: app, mesh: m, opt: jobOpts, check: fixedSteps, sz: sz})
}

// fixedSteps checks that a service solve ran exactly jobSteps steps.
func fixedSteps(h newton.History) string {
	if len(h.Steps) != jobSteps {
		return fmt.Sprintf("took %d steps, want %d", len(h.Steps), jobSteps)
	}
	return ""
}

// checkAgainstDirect solves every (mesh, alpha) pair the jobs covered on a
// fresh App under the engine's configuration and books one operation per
// pair: its final residual must equal the jobs' bit for bit.
func checkAgainstDirect(rep *report, sz sizes, rnorms map[jobPlan]uint64) error {
	cfg := serviceConfig()
	arts := map[int]*core.Artifact{}
	for key, bits := range rnorms {
		art, ok := arts[key.specIdx]
		if !ok {
			m, err := mesh.Generate(sz.service[key.specIdx])
			if err != nil {
				return fmt.Errorf("mesh.Generate: %w", err)
			}
			if art, err = core.BuildArtifact(m, cfg); err != nil {
				return fmt.Errorf("core.BuildArtifact: %w", err)
			}
			arts[key.specIdx] = art
		}
		c := cfg
		c.AlphaDeg = key.alpha
		app, err := core.NewAppFromArtifact(art, c)
		if err != nil {
			return fmt.Errorf("core.NewAppFromArtifact: %w", err)
		}
		s := runSolve(app, jobOpts, nil)
		app.Close()
		problem := solveProblem(s, fixedSteps)
		if problem == "" && math.Float64bits(s.hist.RNormFinal) != bits {
			problem = fmt.Sprintf("mesh %d alpha %v: jobs' rnorm_final %v, direct solve %v",
				key.specIdx, key.alpha, math.Float64frombits(bits), s.hist.RNormFinal)
		}
		rep.op(problem)
	}
	return nil
}
