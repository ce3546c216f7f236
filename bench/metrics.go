package main

import (
	"sort"
	"syscall"
)

// metricDef is one row of the benchmark's contract; BENCHMARK.json lists
// the same rows and a test holds the two together.
type metricDef struct {
	name   string
	unit   string
	higher bool    // higher is better
	bound  float64 // end-to-end only: share by which it may worsen
}

// endToEnd are the metrics a user of the servers would see. Every
// workload reports all of them, from the untraced run.
var endToEnd = []metricDef{
	{"replies_per_s", "1/s", true, 0.08},
	{"p50_us", "us", false, 0.10},
	{"tail10_mean_us", "us", false, 0.10},
	{"srv_cpu_us_per_reply", "us", false, 0.08},
	{"srv_rss_mb", "MiB", false, 0.10},
	{"setup_s", "s", false, 0.25},
}

// perLayer are the single-layer metrics, never gated. Layer = package
// name. A metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	// Traced child-process run: the obs plane, /proc, client spans.
	{name: "obs.phase.queue_wait_us", unit: "us"},
	{name: "obs.phase.parse_us", unit: "us"},
	{name: "obs.phase.handler_us", unit: "us"},
	{name: "obs.phase.write_us", unit: "us"},
	{name: "obs.overhead_pct", unit: "%"},
	{name: "kernel.sys_share", unit: "ratio"},
	{name: "kernel.syscr_per_reply", unit: "1/reply"},
	{name: "kernel.syscw_per_reply", unit: "1/reply"},
	{name: "kernel.ctxsw_vol_per_reply", unit: "1/reply"},
	{name: "kernel.ctxsw_invol_per_reply", unit: "1/reply"},
	{name: "core.sendfile_byte_share", unit: "ratio"},
	{name: "docroot.hit_ratio", unit: "ratio", higher: true},
	{name: "docroot.evictions_per_reply", unit: "1/reply"},
	{name: "proxy.upstream_dials_per_reply", unit: "1/reply"},
	{name: "proxy.upstream_retries_per_reply", unit: "1/reply"},
	{name: "client.p90_us", unit: "us"},
	{name: "client.p95_us", unit: "us"},
	{name: "client.p99_us", unit: "us"},
	{name: "client.connect_us", unit: "us"},
	{name: "client.send_us", unit: "us"},
	{name: "client.wait_us", unit: "us"},
	{name: "client.body_us", unit: "us"},
	{name: "client.cpu_us_per_reply", unit: "us"},
	{name: "proc.srv_util", unit: "ratio"},
	{name: "proc.backend_cpu_us_per_reply", unit: "us"},
	{name: "proc.proxy_cpu_us_per_reply", unit: "us"},
	{name: "proc.build_s", unit: "s"},
	// In-process seam pass: syscalls by site, allocations.
	{name: "sysfault.calls.epoll_wait_per_reply", unit: "1/reply"},
	{name: "sysfault.calls.read_per_reply", unit: "1/reply"},
	{name: "sysfault.calls.write_per_reply", unit: "1/reply"},
	{name: "sysfault.calls.sendfile_per_reply", unit: "1/reply"},
	{name: "sysfault.calls.accept_per_reply", unit: "1/reply"},
	{name: "sysfault.calls.close_per_reply", unit: "1/reply"},
	{name: "sysfault.calls.connect_per_reply", unit: "1/reply"},
	{name: "proc.allocs_per_reply", unit: "1/reply"},
	{name: "proc.alloc_bytes_per_reply", unit: "B/reply"},
	{name: "proc.gc_cycles_per_10k_replies", unit: "count"},
	// Layer replay: public functions on the workload's own bytes.
	{name: "httpwire.parse_ns", unit: "ns"},
	{name: "httpwire.parse_allocs", unit: "allocs/op"},
	{name: "httpwire.parse_batch8_ns", unit: "ns"},
	{name: "httpwire.serialize_ns", unit: "ns"},
	{name: "httpwire.serialize_allocs", unit: "allocs/op"},
	{name: "httpwire.respparse_ns", unit: "ns"},
	{name: "httpwire.respparse_allocs", unit: "allocs/op"},
	{name: "httpwire.forward_ns", unit: "ns"},
	{name: "httpwire.forward_allocs", unit: "allocs/op"},
	{name: "core.store_get_ns", unit: "ns"},
	{name: "docroot.get_hit_ns", unit: "ns"},
	{name: "docroot.get_miss_ns", unit: "ns"},
	{name: "docroot.get_allocs", unit: "allocs/op"},
	{name: "reactor.wait_dispatch_ns", unit: "ns"},
	{name: "reactor.wait_allocs", unit: "allocs/op"},
	{name: "reactor.add_remove_ns", unit: "ns"},
	{name: "reactor.accept_close_ns", unit: "ns"},
	{name: "obs.record_ns", unit: "ns"},
	{name: "obs.record_allocs", unit: "allocs/op"},
	{name: "sysfault.passthrough_ns", unit: "ns"},
	// Budget: replay cost x calls per reply, and what is left.
	{name: "budget.layers_us", unit: "us"},
	{name: "budget.residual_us", unit: "us"},
}

// metrics is name -> value for one workload.
type metrics map[string]float64

// reduced is a liveRun boiled down to numbers.
type reduced struct {
	m metrics
	// slice-level values, for the noise flag
	sliceRate, sliceCPU []float64
	samples             int // latency samples in the window
	// Rank statistics of the tail, demoted to per-layer: see README.
	p90us, p95us, p99us float64
	procCPUus           []float64 // per server process, median slice
	srvUtil             []float64 // per server process, over the window
	clientCPUus         float64
}

// windowLatencies returns the window's latencies, ascending.
func (r *liveRun) windowLatencies() []int64 {
	start, end := r.bounds[0].at, r.bounds[len(r.bounds)-1].at
	lats := make([]int64, 0, len(r.samples))
	for _, s := range r.samples {
		if s.at >= start && s.at < end {
			lats = append(lats, s.lat)
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return lats
}

// reduce turns the run into the end-to-end metrics and the client/proc
// figures that come from the same window.
func (r *liveRun) reduce() reduced {
	n := len(r.bounds) - 1
	at := make([]int64, len(r.bounds))
	for i, b := range r.bounds {
		at[i] = b.at
	}
	counts := make([]int, n)
	for _, s := range r.samples {
		if i := sliceOf(s.at, at); i >= 0 {
			counts[i]++
		}
	}
	nproc := len(r.procNames)
	out := reduced{m: metrics{}, procCPUus: make([]float64, nproc), srvUtil: make([]float64, nproc)}
	perProc := make([][]float64, nproc)
	total := 0
	for i := 0; i < n; i++ {
		total += counts[i]
		secs := float64(at[i+1]-at[i]) / 1e9
		out.sliceRate = append(out.sliceRate, float64(counts[i])/secs)
		replies := float64(counts[i])
		if replies == 0 {
			replies = 1 // a dead slice: keep the arithmetic finite, the run has failed anyway
		}
		var sum float64
		for p := 0; p < nproc; p++ {
			us := float64(r.bounds[i+1].cpu[p].total()-r.bounds[i].cpu[p].total()) / 1e3 / replies
			perProc[p] = append(perProc[p], us)
			sum += us
		}
		out.sliceCPU = append(out.sliceCPU, sum)
	}
	first, last := r.bounds[0], r.bounds[n]
	wall := float64(last.at - first.at)
	for p := 0; p < nproc; p++ {
		out.procCPUus[p] = median(perProc[p])
		out.srvUtil[p] = float64(last.cpu[p].total()-first.cpu[p].total()) / wall
	}
	clientNS := rusageNS(last.client) - rusageNS(first.client)
	if total > 0 {
		out.clientCPUus = float64(clientNS) / 1e3 / float64(total)
	}

	lats := r.windowLatencies()
	out.samples = len(lats)
	us := func(q float64) float64 {
		v, _ := percentile(lats, q)
		return float64(v) / 1e3
	}
	out.p90us, out.p95us, out.p99us = us(0.90), us(0.95), us(0.99)
	out.m["p50_us"] = us(0.50)
	out.m["tail10_mean_us"] = tailMean(lats, 0.10) / 1e3

	var rss int64
	for _, k := range r.rssKiB {
		rss += k
	}
	out.m["replies_per_s"] = median(out.sliceRate)
	out.m["srv_cpu_us_per_reply"] = median(out.sliceCPU)
	out.m["srv_rss_mb"] = float64(rss) / 1024
	out.m["setup_s"] = median(r.setups)
	return out
}

func rusageNS(ru syscall.Rusage) int64 { return ru.Utime.Nano() + ru.Stime.Nano() }

// spanMeans averages the client-side span durations, in µs.
func spanMeans(spans []spanRec) (connect, send, wait, body float64) {
	var nConnect, n float64
	for _, s := range spans {
		if s.connectStart != 0 {
			connect += float64(s.start - s.connectStart)
			nConnect++
		}
		send += float64(s.sent - s.start)
		wait += float64(s.head - s.sent)
		body += float64(s.end - s.head)
		n++
	}
	if nConnect > 0 {
		connect /= nConnect * 1e3
	}
	if n > 0 {
		send /= n * 1e3
		wait /= n * 1e3
		body /= n * 1e3
	}
	return
}

// span is the exported form of a client-side span: name, start, end, the
// request it belongs to, and the span that caused it.
type span struct {
	Name    string `json:"name"`
	Request uint64 `json:"request"`
	Parent  string `json:"parent,omitempty"`
	Conn    int    `json:"conn"`
	Object  int    `json:"object"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// expand turns raw timings into request ⊃ connect, send, wait, body.
func expand(recs []spanRec) []span {
	out := make([]span, 0, 5*len(recs))
	for _, s := range recs {
		start := s.start
		if s.connectStart != 0 {
			start = s.connectStart
		}
		mk := func(name, parent string, a, b int64) span {
			return span{Name: name, Request: s.req, Parent: parent, Conn: s.conn, Object: s.object, StartNS: a, EndNS: b}
		}
		out = append(out, mk("request", "", start, s.end))
		if s.connectStart != 0 {
			out = append(out, mk("connect", "request", s.connectStart, s.start))
		}
		out = append(out,
			mk("send", "request", s.start, s.sent),
			mk("wait", "request", s.sent, s.head),
			mk("body", "request", s.head, s.end))
	}
	return out
}

// phaseMeanUS is a phase's mean over the traced run, from rollup sums.
func phaseMeanUS(before, after []scrapeState, proc int, phase string) float64 {
	a, b := after[proc].rollup.Phases[phase], before[proc].rollup.Phases[phase]
	n := a.Count() - b.Count()
	if n <= 0 {
		return 0
	}
	return float64(a.SumMicros-b.SumMicros) / float64(n)
}
