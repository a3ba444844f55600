// Command fun3dd serves the solver over HTTP: a long-running multi-solve
// daemon in which N concurrent solves share one immutable cached mesh
// artifact and draw their mutable state from a recycling pool. Jobs are
// submitted, polled, streamed, canceled, evicted and resumed through a
// JSON API; a full queue answers 429 with Retry-After (backpressure).
//
// Examples:
//
//	fun3dd -mesh tiny -solves 4 -threads 2          # 4 x 2-way solves
//	fun3dd -addr :9090 -mesh c -queue 32 -order2
//
//	curl -d '{"alpha_deg":3.06,"max_steps":50}' localhost:8080/v1/jobs
//	curl localhost:8080/v1/jobs/job-1/history       # NDJSON stream
//	curl -d '{"alphas":[0,1,2,3]}' localhost:8080/v1/polar
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fun3d"
	"fun3d/internal/service"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		meshName = flag.String("mesh", "tiny", "mesh preset: tiny, c, d")
		scale    = flag.Float64("scale", 1, "scale the mesh vertex count by this factor")
		solves   = flag.Int("solves", 2, "concurrent solves (engine workers)")
		threads  = flag.Int("threads", 2, "worker threads per solve")
		queue    = flag.Int("queue", 16, "queued-job capacity (full queue answers 429)")
		retry    = flag.Duration("retry-after", time.Second, "Retry-After advertised on 429")
		steps    = flag.Int("steps", 200, "default max pseudo-time steps per job")
		order2   = flag.Bool("order2", true, "second-order residual with limiter")
		fused    = flag.Bool("fused", false, "cache-blocked fused residual pipeline (implies -order2)")
		staged   = flag.Bool("staged", false, "hierarchical staged residual pipeline (implies -order2)")
		dedup    = flag.Bool("dedup", false, "content-deduplicate the preconditioner block stores (bit-identical results)")
		warm     = flag.Bool("warm", true, "build the shared mesh artifact before serving")
	)
	flag.Parse()

	spec, err := meshSpec(*meshName, *scale)
	if err != nil {
		fatal(err)
	}
	if *fused && *staged {
		fatal(fmt.Errorf("-fused and -staged are mutually exclusive ladder rungs"))
	}
	cfg := fun3d.Optimized(*threads)
	cfg.SecondOrder = *order2 || *fused || *staged
	cfg.Limiter = cfg.SecondOrder
	cfg.Fused = *fused
	cfg.Staged = *staged
	cfg.Dedup = *dedup

	eng := service.NewEngine(service.EngineConfig{
		Mesh:            spec,
		Solver:          cfg,
		MaxConcurrent:   *solves,
		QueueDepth:      *queue,
		RetryAfter:      *retry,
		DefaultMaxSteps: *steps,
	})
	if *warm {
		fmt.Printf("building shared artifact for mesh %s (scale %.2f)...\n", *meshName, *scale)
		t0 := time.Now()
		if _, err := eng.Cache().Get(spec, cfg); err != nil {
			fatal(err)
		}
		fmt.Printf("  ready in %v\n", time.Since(t0).Round(time.Millisecond))
	}

	// No ReadTimeout or WriteTimeout: a history stream stays open as long as
	// its job runs. The header and idle limits stop a client that opens a
	// connection and then sends nothing from holding it forever.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           eng.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("fun3dd: serving on %s (%d solves x %d threads, queue %d)\n",
		*addr, *solves, *threads, *queue)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Printf("fun3dd: %v, shutting down\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		srv.Shutdown(ctx)
		cancel()
		eng.Close()
	case err := <-errc:
		eng.Close()
		if err != nil && err != http.ErrServerClosed {
			fatal(err)
		}
	}
}

func meshSpec(name string, scale float64) (fun3d.MeshSpec, error) {
	var spec fun3d.MeshSpec
	switch name {
	case "tiny":
		spec = fun3d.MeshTiny()
	case "c":
		spec = fun3d.MeshC()
	case "d":
		spec = fun3d.MeshD()
	default:
		return spec, fmt.Errorf("unknown mesh preset %q (want tiny, c, d)", name)
	}
	if scale != 1 {
		spec = fun3d.ScaleMesh(spec, scale)
	}
	return spec, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fun3dd:", err)
	os.Exit(1)
}
