package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// report collects one workload run's values and its operation tally.
type report struct {
	workload  string
	vals      map[string]float64
	attempted int
	failed    int
	problems  []string // one line per failed operation or check
}

func newReport(workload string) *report {
	return &report{workload: workload, vals: map[string]float64{}}
}

// set records a metric; the name must be in the catalogue.
func (r *report) set(name string, v float64) {
	if _, ok := lookup(name); !ok {
		panic("perfbench: metric " + name + " is not in the catalogue")
	}
	r.vals[name] = v
}

// op tallies one attempted operation; a non-empty problem marks it failed.
func (r *report) op(problem string) {
	r.attempted++
	if problem != "" {
		r.failed++
		r.problems = append(r.problems, problem)
	}
}

// metricValue and result are the wire schema of the final output line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricSet is the catalogue a run reports: the end-to-end metrics on an
// untraced run, the per-layer ones on a traced run.
func metricSet(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// result builds the output object over every metric of the set; metrics
// the workload did not measure read 0.
func (r *report) result(trace bool) result {
	out := result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	if r.attempted == 0 {
		out.Failed = 1 // nothing ran: count the run itself as the failed operation
	}
	for _, d := range metricSet(trace) {
		v := r.vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out
}

// print writes the human-readable block: every metric of the set by name
// with its unit and time axis, then ops_failed and any problems.
func (r *report) print(w io.Writer, trace bool) {
	fmt.Fprintf(w, "== %s (%s run)\n", r.workload, map[bool]string{false: "untraced", true: "traced"}[trace])
	for _, d := range metricSet(trace) {
		v, ok := r.vals[d.Name]
		if !ok {
			fmt.Fprintf(w, "  %-30s %14s %-6s [%s]\n", d.Name, "n/a", d.Unit, "not exercised by this workload")
			continue
		}
		fmt.Fprintf(w, "  %-30s %14.6g %-6s [%s]\n", d.Name, v, d.Unit, d.Axis)
	}
	fmt.Fprintf(w, "  %-30s %14s        [failed/attempted]\n", "ops_failed", fmt.Sprintf("%d/%d", r.failed, r.attempted))
	for _, p := range r.problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
}

// encodeLine renders a result as one JSON line.
func encodeLine(res result) (string, error) {
	b, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// merge folds several workload results into one object whose metric names
// carry the workload as a prefix (the "all" mode's summary line).
func merge(names []string, results []result) result {
	out := result{Correct: true, Metrics: map[string]metricValue{}}
	for i, res := range results {
		out.Correct = out.Correct && res.Correct
		out.Attempted += res.Attempted
		out.Failed += res.Failed
		for k, v := range res.Metrics {
			out.Metrics[names[i]+"/"+k] = v
		}
	}
	return out
}

// listCatalogue prints the catalogue as a table.
func listCatalogue(w io.Writer) {
	for _, set := range []struct {
		title string
		defs  []metricDef
	}{{"end-to-end (untraced run)", endToEnd}, {"per-layer (traced run)", perLayer}} {
		fmt.Fprintf(w, "%s\n", set.title)
		for _, d := range set.defs {
			bound := ""
			if d.Bound > 0 {
				bound = fmt.Sprintf(" bound=%g", d.Bound)
			}
			fmt.Fprintf(w, "  %-30s %-6s %-6s %-8s%s  %s\n", d.Name, d.Unit, d.Better, d.Axis, bound, d.Why)
		}
	}
}
