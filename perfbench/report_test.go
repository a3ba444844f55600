package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// The final output line carries exactly the four contract keys, and every
// metric of the run's set by name with its unit.
func TestResultSchemaRoundTrip(t *testing.T) {
	for _, trace := range []bool{false, true} {
		rep := newReport("wing-steady")
		rep.op("")
		rep.op("solve: diverged")
		rep.set(metricSet(trace)[0].Name, 1.25)
		line, err := encodeLine(rep.result(trace))
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(line, "\n") {
			t.Fatalf("result is not one line: %q", line)
		}
		var raw map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &raw); err != nil {
			t.Fatal(err)
		}
		var keys []string
		for k := range raw {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
			t.Fatalf("keys %v, want %v", keys, want)
		}
		var back result
		if err := json.Unmarshal([]byte(line), &back); err != nil {
			t.Fatal(err)
		}
		if back.Correct || back.Attempted != 2 || back.Failed != 1 {
			t.Errorf("tally = %+v, want incorrect 1/2", back)
		}
		if len(back.Metrics) != len(metricSet(trace)) {
			t.Errorf("%d metrics, want %d", len(back.Metrics), len(metricSet(trace)))
		}
		for _, d := range metricSet(trace) {
			mv, ok := back.Metrics[d.Name]
			if !ok || mv.Unit != d.Unit {
				t.Errorf("metric %s = %+v (present %v), want unit %s", d.Name, mv, ok, d.Unit)
			}
		}
		if got := back.Metrics[metricSet(trace)[0].Name].Value; got != 1.25 {
			t.Errorf("value did not round-trip: %v", got)
		}
	}
	// A run that attempted nothing still reports at least one operation,
	// failed.
	empty := newReport("x").result(false)
	if empty.Attempted != 1 || empty.Failed != 1 || empty.Correct {
		t.Errorf("empty run = %+v", empty)
	}
}

func TestSetRejectsUnknownMetric(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("set of an uncatalogued metric did not panic")
		}
	}()
	newReport("x").set("no.such_metric", 1)
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json and the catalogue list the same workloads and metrics,
// within the limits the file's schema sets.
func TestBenchmarkFileMatchesCatalogue(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Command, []string{"bash", "perfbench/run.sh"}) || !reflect.DeepEqual(f.Paths, []string{"perfbench"}) {
		t.Errorf("command %v paths %v", f.Command, f.Paths)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d", f.RunSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the program", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: file %+v, program %q %q", i, w, workloads[i].name, workloads[i].why)
		}
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) || (better != "lower" && better != "higher") || seen[name] {
			t.Errorf("bad or repeated metric %q unit %q better %q", name, unit, better)
		}
		seen[name] = true
	}
	if len(f.EndToEnd) != len(endToEnd) || len(f.PerLayer) != len(perLayer) {
		t.Fatalf("file lists %d+%d metrics, catalogue %d+%d", len(f.EndToEnd), len(f.PerLayer), len(endToEnd), len(perLayer))
	}
	maxBound, setupBound := 0.0, 0.0
	for i, m := range f.EndToEnd {
		d := endToEnd[i]
		check(m.Name, m.Unit, m.Better)
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %d: file %+v, catalogue %+v", i, m, d)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s is %+v", m)
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	for i, m := range f.PerLayer {
		d := perLayer[i]
		check(m.Name, m.Unit, m.Better)
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || d.Bound != 0 {
			t.Errorf("per_layer %d: file %+v, catalogue %+v", i, m, d)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.Why == "" || d.Axis == "" {
			t.Errorf("%s lacks a reason or a time axis", d.Name)
		}
	}
}

func TestSeededInputsRepeat(t *testing.T) {
	if seedAlpha(defaultSeed) != paperAlphaDeg {
		t.Errorf("default seed alpha %v", seedAlpha(defaultSeed))
	}
	for seed := uint64(0); seed < 50; seed++ {
		a := seedAlpha(seed)
		if a != seedAlpha(seed) || a < paperAlphaDeg-0.5 || a > paperAlphaDeg+0.5 {
			t.Errorf("seed %d alpha %v", seed, a)
		}
	}
	p1, p2 := polar(7), polar(7)
	if !reflect.DeepEqual(p1, p2) || reflect.DeepEqual(p1, polar(8)) {
		t.Errorf("polar not a function of the seed: %v %v %v", p1, p2, polar(8))
	}
	second := 0
	for k := 0; k < 400; k++ {
		j := planJob(7, p1, k)
		if j != planJob(7, p1, k) {
			t.Fatalf("job %d plan differs between calls", k)
		}
		if j.specIdx == 1 {
			second++
		}
	}
	if second != 100 {
		t.Errorf("%d of 400 jobs name the second mesh, want every 4th", second)
	}
}

// Every workload runs end to end on the tiny mesh, untraced and traced,
// with no failed operation, and reports its own metrics.
func TestSmokeTiny(t *testing.T) {
	own := map[string][]string{
		"wing-steady": {"core.new_app_s", "flux.residual_ms", "precond.apply_ms", "vecop.mdotnorm_us",
			"physics.roe_flux_ns", "flux.residual_fused_ms", "flux.residual_staged_ms", "stream.triad_gbs",
			"newton.steps", "krylov.linear_iters", "newton.step_ms_p50"},
		"service-polar": {"service.run_ms_p50", "service.submit_ms_p50", "service.cache_hit_ratio", "flux.residual_ms"},
		"cluster-64":    {"mpisim.build_s", "mpisim.virtual_s", "mpisim.msgs", "mpisim.allreduces", "newton.steps"},
	}
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			res, err := runOne(&out, wl, tinySizes(3), 3, 200*time.Millisecond, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", wl.name, trace, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Errorf("%s trace=%v: %+v\n%s", wl.name, trace, res, out.String())
			}
			if len(res.Metrics) != len(metricSet(trace)) {
				t.Errorf("%s trace=%v: %d metrics", wl.name, trace, len(res.Metrics))
			}
			names := []string{}
			if trace {
				names = own[wl.name]
			} else {
				for _, d := range endToEnd {
					names = append(names, d.Name)
				}
			}
			for _, n := range names {
				if v := res.Metrics[n].Value; !(v > 0) {
					t.Errorf("%s trace=%v: %s = %v, want > 0", wl.name, trace, n, v)
				}
			}
			if !strings.Contains(out.String(), "ops_failed") {
				t.Errorf("%s: no ops_failed line", wl.name)
			}
		}
	}
}
