// Command perfbench is the repository's benchmark. It builds its inputs
// from a seed, runs one named workload (or all of them, in one process),
// checks every output, and prints each metric by name with its unit and
// time axis; the last line of standard output is one JSON object
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// carrying the end-to-end metrics on an untraced run (--trace 0) and the
// per-layer metrics on a traced run (--trace 1). Per-layer numbers are
// taken from outside the program: around calls into each layer's public
// functions, never from spans inside it.
//
// Run it from the repository root with
//
//	bash perfbench/run.sh --workload wing-steady --seed 42 --seconds 25 --trace 0
//
// or list the metric catalogue with --list.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"fun3d/internal/mesh"
)

// sizes are a run's problem sizes and repetition counts; full is the
// benchmark proper, tiny the smoke-test scale.
type sizes struct {
	wing, cluster      mesh.GenSpec
	alphaDeg           float64         // wing-steady and cluster-64 angle of attack
	service            [2]mesh.GenSpec // the engine default, and the spec every 4th job names
	ranks              int
	ranksPerNode       int
	minJobs            int // service jobs per run, at least: about 30 s, longer than a shared host's speed drifts
	minSolves          int // solves per batch run, at least
	setups             int // set-ups per run; setup_s is their median
	pinSteps, pinIters int // wing-steady counts expected on the default seed (0: not pinned)
	replayReps         int
	replayDur          time.Duration
	streamElems        int64 // over-LLC STREAM elements per array (0: from the host's LLC)
}

// defaultSeed gives the paper's flow problem: Mesh-C' at its angle of attack.
const defaultSeed = 42

// paperAlphaDeg is the paper's angle of attack (core.BaselineConfig).
const paperAlphaDeg = 3.06

// seedAlpha is the angle of attack a seed gives the single-mesh workloads:
// the paper's on the default seed, otherwise one drawn within half a
// degree of it, to 0.01.
func seedAlpha(seed uint64) float64 {
	if seed == defaultSeed {
		return paperAlphaDeg
	}
	u := float64(splitmix(seed, 1<<20)>>11) / (1 << 53)
	return math.Round((paperAlphaDeg-0.5+u)*100) / 100
}

// fullSizes are the benchmark's workloads. The seed sets the flow input
// of every workload: the angle of attack on Mesh-C' and the service polar.
// The mesh itself is the paper's, so that a seed changes the flow problem
// and not the decomposition the cluster runs on.
func fullSizes(seed uint64) sizes {
	tiny := mesh.SpecTiny()
	sz := sizes{
		wing: mesh.SpecC(), cluster: mesh.SpecC(),
		alphaDeg:     seedAlpha(seed),
		service:      [2]mesh.GenSpec{tiny, mesh.ScaleSpec(tiny, 2)},
		ranks:        64,
		ranksPerNode: 16,
		minJobs:      400,
		minSolves:    2,
		setups:       3,
		replayReps:   5,
		replayDur:    300 * time.Millisecond,
	}
	if seed == defaultSeed {
		sz.pinSteps, sz.pinIters = 7, 101
	}
	return sz
}

// tinySizes run every workload end to end in seconds, for the tests.
func tinySizes(seed uint64) sizes {
	tiny := mesh.SpecTiny()
	return sizes{
		wing: tiny, cluster: tiny,
		alphaDeg:     seedAlpha(seed),
		service:      [2]mesh.GenSpec{tiny, mesh.ScaleSpec(tiny, 2)},
		ranks:        4,
		ranksPerNode: 2,
		minJobs:      8,
		minSolves:    2,
		setups:       2,
		replayReps:   2,
		streamElems:  1 << 16,
	}
}

type workload struct {
	name, why string
	run       func(w io.Writer, rep *report, sz sizes, seed uint64, seconds time.Duration, trace bool) error
}

var workloads = []workload{
	{"wing-steady", "Table I problem: Mesh-C' at 2 threads to 1e-6; edge sweeps and ILU/TRSV dominate the solve",
		wingSteady},
	{"service-polar", "closed loop of 2 HTTP callers on tiny-mesh polar jobs; exercises decode, queue, cache, pool and streaming",
		servicePolar},
	{"cluster-64", "mpisim on Mesh-C' with 64 ranks at 16 per node on pinned rates; the only workload that runs mpisim",
		cluster64},
}

func findWorkload(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// runOne runs one workload and returns its result object.
func runOne(w io.Writer, wl workload, sz sizes, seed uint64, seconds time.Duration, trace bool) (result, error) {
	rep := newReport(wl.name)
	if err := wl.run(w, rep, sz, seed, seconds, trace); err != nil {
		return result{}, fmt.Errorf("%s: %w", wl.name, err)
	}
	rep.print(w, trace)
	return rep.result(trace), nil
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+names()+", or all")
		seed    = flag.Uint64("seed", defaultSeed, "input seed (42 gives the paper's angle of attack)")
		seconds = flag.Float64("seconds", 25, "measured seconds per workload (at least the minimum solves or jobs always run)")
		trace   = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
		list    = flag.Bool("list", false, "print the metric catalogue and exit")
	)
	flag.Parse()
	if *list {
		listCatalogue(os.Stdout)
		return
	}
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1"))
	}
	var run []workload
	if *name == "all" {
		run = workloads
	} else if wl, ok := findWorkload(*name); ok {
		run = []workload{wl}
	} else {
		fail(fmt.Errorf("unknown --workload %q (want %s or all)", *name, names()))
	}
	sz := fullSizes(*seed)
	readHost().print(os.Stdout)
	fmt.Printf("run: seed=%d seconds=%g trace=%d\n", *seed, *seconds, *trace)
	var results []result
	var ran []string
	for _, wl := range run {
		res, err := runOne(os.Stdout, wl, sz, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
		if err != nil {
			fail(err)
		}
		results = append(results, res)
		ran = append(ran, wl.name)
	}
	out := results[0]
	if len(results) > 1 {
		for i, res := range results {
			line, err := encodeLine(res)
			if err != nil {
				fail(err)
			}
			fmt.Printf("%s %s\n", ran[i], line)
		}
		out = merge(ran, results)
	}
	line, err := encodeLine(out)
	if err != nil {
		fail(err)
	}
	fmt.Println(line)
}

func names() string {
	var n []string
	for _, wl := range workloads {
		n = append(n, wl.name)
	}
	return strings.Join(n, ", ")
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
