// Command bench is the repository's live benchmark: it builds the three
// real servers, drives each workload against them as child processes
// over loopback, verifies every reply, and prints the end-to-end and
// per-layer metrics that later performance claims are stated in. See
// README.md in this directory.
//
//	go run ./bench -seed 7               every workload, both passes
//	go run ./bench -selfcheck            untraced set twice, compared
//	go run ./bench -workload nio_small -seed 3 -seconds 10 -trace 0
//
// The last form is what BENCHMARK.json's driver runs: one workload, one
// pass, and a final line of JSON on standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func init() {
	// Children are forked from the main goroutine; keeping it on the
	// main thread keeps their Pdeathsig tied to a thread that cannot
	// exit before the process does.
	runtime.LockOSThread()
}

type options struct {
	seed      uint64
	workloads []workload
	window    time.Duration
	// untraced and traced select the passes.
	untraced, traced bool
	// driverLine prints the one-line JSON result BENCHMARK.json's driver
	// reads; set when -trace is given with exactly one workload.
	driverLine bool
	selfcheck  bool
	jsonPath   string
}

func parseFlags() (options, error) {
	var o options
	seed := flag.Uint64("seed", 7, "derives the per-connection request streams (the object population is fixed, see objectSetSeed)")
	names := flag.String("workload", "", "comma-separated workloads to run (default: all); selection only")
	seconds := flag.Int("seconds", 10, "length of the measured window, cut into five slices; the traced window is 3/10 of it")
	trace := flag.Int("trace", -1, "0: untraced pass only, 1: per-layer passes only; with one workload also prints the driver's JSON line (default: both passes)")
	notrace := flag.Bool("notrace", false, "skip the per-layer passes (same as -trace 0 without the JSON line)")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the untraced set twice on one build and fail if any end-to-end metric differs by more than its bound")
	flag.StringVar(&o.jsonPath, "json", "", "also write results, per-second series and client spans to this file")
	flag.Parse()
	if flag.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if *seconds < 1 || *seconds > 60 {
		return o, fmt.Errorf("-seconds %d outside 1..60", *seconds)
	}
	o.seed = *seed
	o.window = time.Duration(*seconds) * time.Second
	if *names == "" {
		o.workloads = workloads
	} else {
		for _, n := range strings.Split(*names, ",") {
			w, ok := workloadByName(strings.TrimSpace(n))
			if !ok {
				return o, fmt.Errorf("unknown workload %q", n)
			}
			o.workloads = append(o.workloads, w)
		}
	}
	switch {
	case *trace < -1 || *trace > 1:
		return o, fmt.Errorf("-trace %d: want 0 or 1", *trace)
	case o.selfcheck || *notrace || *trace == 0:
		o.untraced = true
	case *trace == 1:
		o.traced = true
	default:
		o.untraced, o.traced = true, true
	}
	o.driverLine = *trace >= 0 && len(o.workloads) == 1 && !o.selfcheck
	return o, nil
}

func main() {
	os.Exit(run())
}

// run is main with deferred clean-up: every path out of it, a panic
// included, reaps the children and removes the scratch directory.
func run() (code int) {
	o, err := parseFlags()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	nproc := runtime.NumCPU()
	if nproc > 2 {
		runtime.GOMAXPROCS(2) // the controller and the one connection
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	interrupted := make(chan struct{})
	go func() {
		if _, ok := <-sigs; ok {
			close(interrupted)
			reapAll() // the servers go first; run() unwinds as its calls fail
		}
	}()
	// The runtime opens its netpoller (an epoll fd and an eventfd) on
	// first use and keeps it; make that happen before the baseline.
	if r, w, err := os.Pipe(); err == nil {
		r.Close()
		w.Close()
	}
	base := baseline{fds: countFDs(), goroutines: runtime.NumGoroutine()}
	e := &env{nconn: clientConns}
	defer func() {
		reapAll()
		if e.tmpRoot != "" {
			os.RemoveAll(e.tmpRoot)
		}
		signal.Stop(sigs)
		close(sigs)
		if err := base.check(); err != nil && code == 0 {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
		}
	}()

	objs, err := e.prepare(nproc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("built nioserver, mtserver, nioproxy in %.2fs; seed %d; %d connection(s); window %v in %d slices after %v warm-up\n",
		e.bins.buildSeconds, o.seed, e.nconn, o.window, nSlices, warmup)
	fmt.Printf("objects: %d (%.0f B mean), %d small (<= %d B), %d large (>= %d B)\n\n",
		objs.set.Len(), objs.set.MeanBytes(), len(objs.small), smallMax, len(objs.large), largeMin)

	var results []*result
	ok := true
	for _, w := range o.workloads {
		select {
		case <-interrupted:
			fmt.Fprintln(os.Stderr, "bench: interrupted")
			return 130
		default:
		}
		res, err := runWorkload(e, o, w, objs)
		if err != nil {
			select {
			case <-interrupted: // the error is the servers being reaped under the run
				fmt.Fprintln(os.Stderr, "bench: interrupted")
				return 130
			default:
			}
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			if o.driverLine {
				return 1
			}
			ok = false
			continue
		}
		res.print(os.Stdout)
		results = append(results, res)
	}
	if o.selfcheck {
		// The whole set a second time, not each workload twice in a
		// row: drift over minutes must show.
		for _, res := range results {
			b, err := live(e, res.w, objs, o.seed, o.window, false, setupRepeats)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: second pass: %v\n", res.w.name, err)
				ok = false
				continue
			}
			res.b, res.rb = b, b.reduce()
			res.attempted += b.attempted
			res.failed += b.failed
		}
		if !printSelfcheck(os.Stdout, results) {
			ok = false
		}
	}
	for _, res := range results {
		if !res.correct() {
			ok = false
		}
	}
	if o.jsonPath != "" {
		if err := writeJSON(o, results); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			ok = false
		}
	}
	if o.driverLine && len(results) == 1 {
		fmt.Println(results[0].driverJSON(o.traced))
	}
	if !ok {
		return 1
	}
	return 0
}

// prepare places the data path, builds the servers, makes the scratch
// directory and builds the driver's copy of the object set.
func (e *env) prepare(nproc int) (*objects, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	if nproc > 1 {
		cpu, mask, err := benchCPU()
		if err == nil {
			err = pinThread(&mask)
		}
		if err != nil {
			return nil, err
		}
		e.pin = &mask
		fmt.Printf("data path (servers and the client connection) confined to CPU %d of %d\n", cpu, nproc)
	}
	e.buildDir = filepath.Join(root, buildDirName)
	if e.bins, err = buildServers(root, e.buildDir); err != nil {
		return nil, err
	}
	if e.tmpRoot, err = prepareTmp(e.buildDir); err != nil {
		return nil, err
	}
	return buildObjects(objectSetSeed)
}

// baseline is the driver's fd and goroutine count before any work.
type baseline struct{ fds, goroutines int }

func countFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// openFDs names what every descriptor of the driver points at.
func openFDs() []string {
	ents, _ := os.ReadDir("/proc/self/fd")
	var out []string
	for _, e := range ents {
		if target, err := os.Readlink("/proc/self/fd/" + e.Name()); err == nil {
			out = append(out, e.Name()+"="+target)
		}
	}
	return out
}

// check reports a leak: anything the run opened or started must be gone.
func (b baseline) check() error {
	scrapeClient.CloseIdleConnections()
	var fds, gs int
	for try := 0; try < 50; try++ {
		fds, gs = countFDs(), runtime.NumGoroutine()
		if fds <= b.fds && gs <= b.goroutines {
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("leak: %d fds and %d goroutines at exit, %d and %d at start (open: %s)",
		fds, gs, b.fds, b.goroutines, strings.Join(openFDs(), " "))
}

// result is everything known about one workload after its passes.
type result struct {
	w workload
	// a is the untraced run; b is the second one under -selfcheck.
	a, b              *liveRun
	ra, rb            reduced
	layer             metrics // per-layer, nil when the traced passes did not run
	budget            []budgetRow
	attempted, failed int64
	spans             []spanRec
	noisy             []string
}

func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

// runWorkload makes the passes the options select.
func runWorkload(e *env, o options, w workload, objs *objects) (*result, error) {
	res := &result{w: w}
	count := func(r *liveRun) {
		res.attempted += r.attempted
		res.failed += r.failed
	}
	if o.untraced {
		a, err := live(e, w, objs, o.seed, o.window, false, setupRepeats)
		if err != nil {
			return nil, err
		}
		res.a, res.ra = a, a.reduce()
		count(a)
		if tail := (res.ra.samples + 9) / 10; tail < minSamples {
			res.noisy = append(res.noisy, fmt.Sprintf("tail10_mean_us (a mean of only %d samples, want %d)", tail, minSamples))
		}
		for _, d := range endToEnd {
			var s float64
			switch d.name {
			case "replies_per_s":
				s = spread(res.ra.sliceRate)
			case "srv_cpu_us_per_reply":
				s = spread(res.ra.sliceCPU)
			}
			if s > d.bound {
				res.noisy = append(res.noisy, fmt.Sprintf("%s (slices spread %.1f%%)", d.name, 100*s))
			}
		}
	}
	if o.traced {
		if err := perLayerPass(e, o, w, objs, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// driverJSON is the last line of output in driver mode.
func (r *result) driverJSON(traced bool) string {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]val{}}
	defs, m := endToEnd, r.ra.m
	if traced {
		defs, m = perLayer, r.layer
	}
	for _, d := range defs {
		v := m[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
			out.Correct = false
		}
		out.Metrics[d.name] = val{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

// writeJSON writes the -json file: metrics, the per-second series of the
// untraced window, and the client-side spans of the traced one.
func writeJSON(o options, results []*result) error {
	type wl struct {
		Name      string      `json:"name"`
		Attempted int64       `json:"attempted"`
		Failed    int64       `json:"failed"`
		EndToEnd  metrics     `json:"end_to_end,omitempty"`
		PerLayer  metrics     `json:"per_layer,omitempty"`
		Series    []perSecond `json:"series,omitempty"`
		Spans     []span      `json:"spans,omitempty"`
	}
	doc := struct {
		Seed      uint64 `json:"seed"`
		WindowS   int    `json:"window_s"`
		Workloads []wl   `json:"workloads"`
	}{Seed: o.seed, WindowS: int(o.window / time.Second)}
	for _, r := range results {
		w := wl{Name: r.w.name, Attempted: r.attempted, Failed: r.failed, PerLayer: r.layer, Spans: expand(r.spans)}
		if r.a != nil {
			w.EndToEnd, w.Series = r.ra.m, r.a.series()
		}
		doc.Workloads = append(doc.Workloads, w)
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	f, err := os.Create(o.jsonPath)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
