package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"

	"repro/internal/sysfault"
)

// BENCHMARK.json at the module root is the contract the driver reads;
// the tables in this package are what the program prints. They must be
// the same rows.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the table %q (%q)",
				i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the table", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != direction(d.higher) {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s] %s, the table %s [%s] %s",
					kind, i, g.Name, g.Unit, g.Better, d.name, d.unit, direction(d.higher))
			}
			if bounded && (g.Bound == nil || *g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25) {
				t.Errorf("%s: bound in BENCHMARK.json %v, in the table %v (must be in (0, 0.25])", d.name, g.Bound, d.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s: per-layer metrics carry no bound", d.name)
			}
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
				t.Errorf("%s [%s]: name or unit outside the contract's alphabet", d.name, d.unit)
			}
			if seen[d.name] {
				t.Errorf("%s: name used twice", d.name)
			}
			seen[d.name] = true
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
	for _, w := range workloads {
		if seen[w.name] {
			t.Errorf("%s: workload name collides with a metric", w.name)
		}
		seen[w.name] = true
	}
}

// A synthetic run: five 1 s slices with known reply counts and CPU.
func syntheticRun() *liveRun {
	const sec = int64(1e9)
	r := &liveRun{procNames: []string{"backend", "front"}, rssKiB: []int64{10240, 5120}, setups: []float64{0.03, 0.01, 0.02}}
	perSlice := []int{1000, 1100, 5000, 900, 1000} // one burst slice
	var cpuA, cpuB int64
	r.bounds = append(r.bounds, boundary{at: 10 * sec, cpu: []cpuTimes{{runNS: 1}, {runNS: 1}}})
	for i, n := range perSlice {
		start := (10 + int64(i)) * sec
		for k := 0; k < n; k++ {
			at := start + int64(k)*sec/int64(n)
			r.samples = append(r.samples, sample{at: at, lat: int64(1000 + k%100)})
		}
		cpuA += int64(n) * 20000 // 20 us per reply
		cpuB += int64(n) * 10000 // 10 us per reply
		r.bounds = append(r.bounds, boundary{at: start + sec, cpu: []cpuTimes{{runNS: 1 + cpuA}, {runNS: 1 + cpuB}}})
	}
	// Warm-up and after-window samples must not count.
	r.samples = append(r.samples, sample{at: 9 * sec, lat: 1}, sample{at: 15 * sec, lat: 1})
	r.attempted = int64(len(r.samples))
	return r
}

func TestReduce(t *testing.T) {
	red := syntheticRun().reduce()
	want := map[string]float64{
		"replies_per_s":        1000, // the median slice, not the mean the burst would drag up
		"srv_cpu_us_per_reply": 30,
		"srv_rss_mb":           15,
		"setup_s":              0.02,
		"p50_us":               1.049,
		"tail10_mean_us":       1.0945, // the slowest 900 samples: 90 each of 1090..1099 ns
	}
	for name, w := range want {
		if got := red.m[name]; math.Abs(got-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}
	if red.samples != 9000 {
		t.Errorf("samples %d, want 9000", red.samples)
	}
	if math.Abs(red.p90us-1.089) > 1e-9 || math.Abs(red.p95us-1.094) > 1e-9 || math.Abs(red.p99us-1.098) > 1e-9 {
		t.Errorf("p90 %v p95 %v p99 %v, want 1.089, 1.094, 1.098", red.p90us, red.p95us, red.p99us)
	}
	if math.Abs(red.procCPUus[0]-20) > 1e-9 || math.Abs(red.procCPUus[1]-10) > 1e-9 {
		t.Errorf("per-process CPU = %v, want [20 10]", red.procCPUus)
	}
	// 9000 replies x 20 us over a 5 s window.
	if math.Abs(red.srvUtil[0]-0.036) > 1e-9 {
		t.Errorf("srv_util = %v, want 0.036", red.srvUtil[0])
	}
	if s := spread(red.sliceRate); s < 4 {
		t.Errorf("slice spread = %v; the burst slice must show", s)
	}
	for _, d := range endToEnd {
		if v, ok := red.m[d.name]; !ok || v == 0 {
			t.Errorf("end-to-end metric %s missing or zero", d.name)
		}
	}
}

func TestSeries(t *testing.T) {
	r := syntheticRun()
	r.failures = []failure{{at: 12*1e9 + 5}, {at: 9 * 1e9}}
	s := r.series()
	if len(s) != 5 {
		t.Fatalf("%d points, want 5", len(s))
	}
	for i, want := range []int{1000, 1100, 5000, 900, 1000} {
		if s[i].Second != i || s[i].Replies != want {
			t.Errorf("second %d: %+v, want %d replies", i, s[i], want)
		}
	}
	if s[2].Failures != 1 || s[0].Failures != 0 {
		t.Errorf("failures: %+v", s)
	}
	if math.Abs(s[0].P99us-1.098) > 1e-9 {
		t.Errorf("p99 of second 0 = %v", s[0].P99us)
	}
}

func TestSpansExpand(t *testing.T) {
	recs := []spanRec{
		{req: 1, conn: 0, object: 7, start: 100, sent: 110, head: 150, end: 170},
		{req: 2, conn: 1, object: 8, connectStart: 200, start: 230, sent: 240, head: 300, end: 330},
	}
	connect, send, wait, body := spanMeans(recs)
	if connect != 0.030 || send != 0.010 || wait != 0.050 || body != 0.025 {
		t.Errorf("spanMeans = %v %v %v %v", connect, send, wait, body)
	}
	spans := expand(recs)
	if len(spans) != 4+5 {
		t.Fatalf("%d spans, want 9", len(spans))
	}
	for _, s := range spans {
		if s.Name == "request" {
			if s.Parent != "" {
				t.Errorf("request span has a parent: %+v", s)
			}
			continue
		}
		if s.Parent != "request" {
			t.Errorf("%s span of request %d has parent %q", s.Name, s.Request, s.Parent)
		}
		// Children lie inside their request.
		for _, p := range spans {
			if p.Name == "request" && p.Request == s.Request && (s.StartNS < p.StartNS || s.EndNS > p.EndNS) {
				t.Errorf("%s [%d,%d] outside its request [%d,%d]", s.Name, s.StartNS, s.EndNS, p.StartNS, p.EndNS)
			}
		}
	}
	if c, s, w, b := spanMeans(nil); c+s+w+b != 0 {
		t.Error("spanMeans(nil) is not all zero")
	}
}

func TestBudgetSumsToServerCPU(t *testing.T) {
	m := metrics{
		"httpwire.parse_ns": 300, "httpwire.parse_batch8_ns": 200, "httpwire.serialize_ns": 50,
		"core.store_get_ns": 20, "reactor.wait_dispatch_ns": 1500, "reactor.add_remove_ns": 800,
		"reactor.accept_close_ns": 6000, "sysfault.passthrough_ns": 10,
		"httpwire.respparse_ns": 1600, "httpwire.forward_ns": 100,
		"docroot.get_hit_ns": 300, "docroot.get_miss_ns": 5000, "docroot.hit_ratio": 0.75,
	}
	var seam seamResult
	seam.calls[sysfault.SiteEpollWait] = 1
	seam.calls[sysfault.SiteRead] = 2
	seam.calls[sysfault.SiteWrite] = 2
	for _, w := range workloads {
		rows := budget(w, m, seam, 14)
		var sum float64
		for _, r := range rows {
			sum += r.us()
		}
		if math.Abs(sum-m["budget.layers_us"]) > 1e-12 {
			t.Errorf("%s: rows sum to %v, budget.layers_us = %v", w.name, sum, m["budget.layers_us"])
		}
		if got := m["budget.layers_us"] + m["budget.residual_us"]; math.Abs(got-14) > 1e-12 {
			t.Errorf("%s: layers + residual = %v, want the server CPU 14", w.name, got)
		}
	}
	// nio_small by hand: 300 + 50 + 20 + 1500 + 5 calls x 10 = 1920 ns.
	w, _ := workloadByName("nio_small")
	budget(w, m, seam, 14)
	if math.Abs(m["budget.layers_us"]-1.92) > 1e-12 {
		t.Errorf("nio_small layers = %v us, want 1.92", m["budget.layers_us"])
	}
	// Churn pays the accept path once per reply.
	seam.calls[sysfault.SiteAccept] = 1.9
	w, _ = workloadByName("nio_churn")
	budget(w, m, seam, 44)
	if want := (300 + 50 + 20 + 1500 + 1.9*800 + 1.9*6000 + 6.9*10) / 1e3; math.Abs(m["budget.layers_us"]-want) > 1e-9 {
		t.Errorf("nio_churn layers = %v us, want %v", m["budget.layers_us"], want)
	}
}

func TestDriverJSON(t *testing.T) {
	r := &result{attempted: 10, ra: reduced{m: metrics{}}, layer: metrics{}}
	for i, d := range endToEnd {
		r.ra.m[d.name] = float64(i) + 0.123456789
	}
	for _, traced := range []bool{false, true} {
		var doc struct {
			Correct   *bool  `json:"correct"`
			Attempted *int64 `json:"attempted"`
			Failed    *int64 `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		line := r.driverJSON(traced)
		if err := json.Unmarshal([]byte(line), &doc); err != nil {
			t.Fatalf("%v: %s", err, line)
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		if doc.Correct == nil || !*doc.Correct || *doc.Attempted != 10 || *doc.Failed != 0 || len(doc.Metrics) != len(defs) {
			t.Errorf("traced=%v: %s", traced, line)
		}
		for _, d := range defs {
			if got, ok := doc.Metrics[d.name]; !ok || got.Unit != d.unit || got.Value == nil {
				t.Errorf("traced=%v: metric %s missing or wrong unit in %s", traced, d.name, line)
			}
		}
		var generic map[string]any
		_ = json.Unmarshal([]byte(line), &generic)
		if len(generic) != 4 {
			t.Errorf("driver line has %d keys, want exactly correct, attempted, failed, metrics", len(generic))
		}
	}
	r.failed = 1
	var doc struct{ Correct bool }
	_ = json.Unmarshal([]byte(r.driverJSON(false)), &doc)
	if doc.Correct {
		t.Error("a run with a failed reply reads correct")
	}
}
