package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/docroot"
	"repro/internal/obs"
)

// One live run: start the serving path as child processes, warm up,
// measure a window cut into slices on the same processes and
// connections, stop everything, and reduce the samples.

const (
	warmup  = time.Second
	nSlices = 5
	// setupRepeats is how many times a run sets the serving path up;
	// setup_s is their median, so a slow exec does not decide it. A
	// set-up and its drain take about 25 ms.
	setupRepeats = 25
)

// stack is the serving path of one workload as live processes.
type stack struct {
	procs  []*child // every server process; the last one is the front
	addr   string   // where the client connects
	admins []string // admin address per process ("" when untraced)
	tmp    string
}

func (s *stack) front() *child { return s.procs[len(s.procs)-1] }

// stop drains and reaps every process, front first, removes the temp
// directory, and returns each process's stdout.
func (s *stack) stop() map[string][]string {
	out := map[string][]string{}
	for i := len(s.procs) - 1; i >= 0; i-- {
		out[s.procs[i].name] = s.procs[i].stop()
	}
	os.RemoveAll(s.tmp)
	return out
}

// env is what every run of one invocation shares.
type env struct {
	bins     binaries
	buildDir string // <module root>/.bench_build
	tmpRoot  string
	nconn    int
	pin      *cpuMask // nil: no placement (one CPU, or a test)
}

// docrootDir returns the SURGE set as files on disk, writing it on
// first use. It is kept between runs like the binaries are, and the
// servers open it as an existing directory. Letting each server start
// materialise its own copy ("-docroot tmp") was measured first: seven
// set-ups a run wrote and deleted 7 x 30 MB, the VM's throttled disk
// fell behind, and consecutive runs read setup_s = 0.07, 0.14, 0.64,
// 0.77 s — a metric of the host's I/O budget, not of the program.
func (e *env) docrootDir(objs *objects) (string, error) {
	dir := filepath.Join(e.buildDir, "docroot-"+strconv.FormatUint(objs.setSeed, 10))
	if _, err := os.Stat(filepath.Join(dir, "obj")); err == nil {
		return dir, nil
	}
	// Build beside the final name and rename, so that a killed run
	// cannot leave a half-written set under it.
	tmp, err := os.MkdirTemp(e.buildDir, "docroot-tmp-")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(tmp)
	if err := docroot.MaterializeSurge(tmp, objs.set, objs.cfg.MaxObjectBytes, objs.setSeed+1); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, dir); err != nil {
		if _, statErr := os.Stat(filepath.Join(dir, "obj")); statErr == nil {
			return dir, nil // another run got there first
		}
		return "", err
	}
	return dir, nil
}

// startStack launches the processes for w and waits for their banners.
// The servers receive only flags: the SURGE seed, never the requests.
func startStack(e *env, w workload, objs *objects, traced bool) (*stack, error) {
	tmp, err := os.MkdirTemp(e.tmpRoot, w.name+"-")
	if err != nil {
		return nil, err
	}
	s := &stack{tmp: tmp}
	launch := func(name, bin string, args ...string) (string, error) {
		args = append(args, "-port", "0", "-drain", drainBudget.String())
		if traced {
			args = append(args, "-admin", "127.0.0.1:0")
		}
		c, err := startChild(name, bin, tmp, args...)
		if err != nil {
			return "", err
		}
		s.procs = append(s.procs, c)
		admin := ""
		if traced {
			if admin, err = c.waitBanner(c.admin, "admin banner"); err != nil {
				return "", err
			}
		}
		s.admins = append(s.admins, admin)
		return c.waitBanner(c.addrs, "listen banner")
	}
	surge := []string{"-seed", strconv.FormatUint(objs.setSeed, 10)}
	switch w.server {
	case srvNio, srvProxy:
		args := append(surge, "-shards", "1")
		if w.docroot {
			dir, derr := e.docrootDir(objs)
			if derr != nil {
				s.stop()
				return nil, fmt.Errorf("materialising the docroot: %w", derr)
			}
			args = append(args, "-docroot", dir, "-cache-bytes", strconv.Itoa(docrootCacheBytes))
		}
		s.addr, err = launch("nioserver", e.bins.nio, args...)
		if err == nil && w.server == srvProxy {
			// Probing is off so that every request the backend sees is
			// one the driver sent: the reply counts stay exact.
			s.addr, err = launch("nioproxy", e.bins.proxy,
				"-shards", "1", "-backends", s.addr, "-probe-every", "0")
		}
	case srvMT:
		s.addr, err = launch("mtserver", e.bins.mt, append(surge, "-threads", "64")...)
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// setUp starts the serving path and returns once a first reply through
// it has verified byte for byte, with the time that took.
func setUp(e *env, w workload, objs *objects, seed uint64, traced bool) (*stack, float64, error) {
	t0 := time.Now()
	s, err := startStack(e, w, objs, traced)
	if err != nil {
		return nil, 0, err
	}
	if err := firstReply(w, s.addr, objs, seed); err != nil {
		s.stop()
		return nil, 0, fmt.Errorf("first reply from %s: %w", s.front().name, err)
	}
	return s, time.Since(t0).Seconds(), nil
}

// firstReply makes one fully verified request on its own connection.
func firstReply(w workload, addr string, objs *objects, seed uint64) error {
	f, err := newFleet(w, addr, objs, seed, 1, clock{base: time.Now()}, false)
	if err != nil {
		return err
	}
	c := f.conns[0]
	f.flags.verifyAll.Store(true)
	c.batch(1)
	c.hangup()
	if len(c.failures) > 0 {
		return c.failures[0].err
	}
	return nil
}

// boundary is what the controller records at each slice edge.
type boundary struct {
	at     int64
	cpu    []cpuTimes // per server process
	client syscall.Rusage
}

func (s *stack) boundary(clk clock) (boundary, error) {
	b := boundary{at: clk.now(), cpu: make([]cpuTimes, len(s.procs))}
	for i, p := range s.procs {
		var err error
		if b.cpu[i], err = readCPU(p.pid); err != nil {
			return b, fmt.Errorf("reading CPU of %s: %w", p.name, err)
		}
	}
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &b.client); err != nil {
		return b, err
	}
	return b, nil
}

// scrapeState is a server process seen from outside at one instant.
type scrapeState struct {
	rollup obs.RollupSnapshot
	io     procIO
	status procStatus
	cpu    cpuTimes
}

func (s *stack) scrape() ([]scrapeState, error) {
	out := make([]scrapeState, len(s.procs))
	for i, p := range s.procs {
		var err error
		if out[i].rollup, err = scrapeRollup(s.admins[i]); err != nil {
			return nil, fmt.Errorf("scraping %s: %w", p.name, err)
		}
		if out[i].io, err = readIO(p.pid); err != nil {
			return nil, err
		}
		if out[i].status, err = readStatus(p.pid); err != nil {
			return nil, err
		}
		if out[i].cpu, err = readCPU(p.pid); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// scrapeClient never keeps a connection, so the driver's fd count is
// back at baseline as soon as a scrape returns.
var scrapeClient = &http.Client{
	Timeout:   5 * time.Second,
	Transport: &http.Transport{DisableKeepAlives: true},
}

// scrapeRollup fetches /rollup — not /stats, whose phase means are
// rounded to 1 µs; the rollup carries each phase's exact sum and count.
func scrapeRollup(admin string) (obs.RollupSnapshot, error) {
	resp, err := scrapeClient.Get("http://" + admin + "/rollup")
	if err != nil {
		return obs.RollupSnapshot{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return obs.RollupSnapshot{}, fmt.Errorf("/rollup: %s", resp.Status)
	}
	return obs.ParseRollup(resp.Body)
}

func field(s obs.RollupSnapshot, name string) int64 {
	for _, f := range s.Fields {
		if f.Name == name {
			return f.Value
		}
	}
	return 0
}

// liveRun is everything one run measured, before reduction to metrics.
type liveRun struct {
	w        workload
	setups   []float64 // seconds, one per set-up
	bounds   []boundary
	samples  []sample // every verified reply, warm-up included, by completion time
	failures []failure
	spans    []spanRec

	attempted, failed int64
	clientBytes       int64
	procNames         []string
	rssKiB            []int64
	before, after     []scrapeState // traced only
	// What the driver itself allocated per attempt while the fleet ran:
	// the calibration the seam pass subtracts.
	driverAllocs, driverAllocBytes float64
	banners                        map[string][]string
}

// live runs workload w once for the given window.
func live(e *env, w workload, objs *objects, seed uint64, window time.Duration, traced bool, repeats int) (*liveRun, error) {
	r := &liveRun{w: w}
	// Set-up is repeated; the last stack stays up and is measured.
	var s *stack
	for i := 0; i < repeats; i++ {
		if s != nil {
			s.stop()
		}
		var secs float64
		var err error
		if s, secs, err = setUp(e, w, objs, seed, traced); err != nil {
			return nil, err
		}
		r.setups = append(r.setups, secs)
	}
	defer s.stop() // a no-op once the success path has stopped it
	for _, p := range s.procs {
		r.procNames = append(r.procNames, p.name)
	}
	var err error
	if traced {
		if r.before, err = s.scrape(); err != nil {
			return nil, err
		}
	}

	clk := clock{base: time.Now()}
	f, err := newFleet(w, s.addr, objs, seed, e.nconn, clk, traced)
	if err != nil {
		return nil, err
	}
	for _, c := range f.conns {
		c.pin = e.pin
	}
	f.flags.verifyAll.Store(true)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f.start()
	defer f.stop()
	time.Sleep(warmup)
	f.flags.verifyAll.Store(false)
	slice := window / nSlices
	for i := 0; i <= nSlices; i++ {
		if i > 0 {
			time.Sleep(time.Duration(r.bounds[0].at) + time.Duration(i)*slice - time.Duration(clk.now()))
		}
		b, err := s.boundary(clk)
		if err != nil {
			return nil, err
		}
		r.bounds = append(r.bounds, b)
	}
	f.stop()
	runtime.ReadMemStats(&m1)

	for _, p := range s.procs {
		st, err := readStatus(p.pid)
		if err != nil {
			return nil, err
		}
		r.rssKiB = append(r.rssKiB, st.vmHWMKiB)
	}
	for _, c := range f.conns {
		r.samples = append(r.samples, c.samples...)
		r.failures = append(r.failures, c.failures...)
		r.spans = append(r.spans, c.spans...)
		r.attempted += c.attempted
		r.failed += c.failed
		r.clientBytes += c.rr.total
	}
	sort.Slice(r.samples, func(i, j int) bool { return r.samples[i].at < r.samples[j].at })
	if r.attempted > 0 {
		r.driverAllocs = float64(m1.Mallocs-m0.Mallocs) / float64(r.attempted)
		r.driverAllocBytes = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(r.attempted)
	}
	if traced {
		if err := r.crossCheck(s); err != nil {
			return nil, err
		}
	}
	r.banners = s.stop()
	return r, nil
}

// crossCheck holds the client's reply and byte counts against the front
// server's own counters over the whole traced run. The counters trail
// the write(2) that the client has already read by a few instructions,
// so a mismatch is re-scraped briefly before it counts.
func (r *liveRun) crossCheck(s *stack) error {
	front := len(s.procs) - 1
	verified := int64(len(r.samples))
	var replies, bytes int64
	for try := 0; try < 5; try++ {
		if try > 0 {
			time.Sleep(20 * time.Millisecond)
		}
		var err error
		if r.after, err = s.scrape(); err != nil {
			return err
		}
		replies = field(r.after[front].rollup, "replies") - field(r.before[front].rollup, "replies")
		bytes = field(r.after[front].rollup, "bytes_out") - field(r.before[front].rollup, "bytes_out")
		if r.failed == 0 && replies == verified && bytes == r.clientBytes {
			return nil
		}
	}
	if r.failed > 0 {
		return nil // already a failed run; the counts cannot be expected to agree
	}
	return fmt.Errorf("%s: client verified %d replies / %d bytes, %s counted %d / %d",
		r.w.name, verified, r.clientBytes, s.front().name, replies, bytes)
}

// perSecond is one point of the -json time series.
type perSecond struct {
	Second   int     `json:"second"`
	Replies  int     `json:"replies"`
	P99us    float64 `json:"p99_us"`
	Failures int     `json:"failures"`
}

// series buckets the measured window by whole seconds; the few ms by
// which the window overhangs its last second fall into that second.
func (r *liveRun) series() []perSecond {
	const second = int64(time.Second)
	start, end := r.bounds[0].at, r.bounds[len(r.bounds)-1].at
	n := int((end - start) / second)
	if n < 1 {
		n = 1
	}
	bucket := func(at int64) int {
		if i := int((at - start) / second); i < n {
			return i
		}
		return n - 1
	}
	out := make([]perSecond, n)
	lats := make([][]int64, n)
	for _, s := range r.samples {
		if s.at >= start && s.at < end {
			i := bucket(s.at)
			out[i].Replies++
			lats[i] = append(lats[i], s.lat)
		}
	}
	for _, f := range r.failures {
		if f.at >= start && f.at < end {
			out[bucket(f.at)].Failures++
		}
	}
	for i := range out {
		out[i].Second = i
		sort.Slice(lats[i], func(a, b int) bool { return lats[i][a] < lats[i][b] })
		v, _ := percentile(lats[i], 0.99)
		out[i].P99us = float64(v) / 1e3
	}
	return out
}

// bannerInts pulls key=value integers out of a server's exit banner.
func bannerInts(lines []string, keys ...string) map[string]int64 {
	out := map[string]int64{}
	for _, line := range lines {
		for _, f := range strings.Fields(line) {
			k, v, ok := strings.Cut(f, "=")
			if !ok {
				continue
			}
			for _, want := range keys {
				if k == want {
					if n, err := strconv.ParseInt(v, 10, 64); err == nil {
						out[k] = n
					}
				}
			}
		}
	}
	return out
}

// prepareTmp makes the run's scratch directory under the build dir, so
// that nothing is written outside the checkout.
func prepareTmp(buildDir string) (string, error) {
	dir := filepath.Join(buildDir, "tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(dir, "run-")
}
