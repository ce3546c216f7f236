package main

import (
	"fmt"
	"io"
	"math"

	"repro/internal/sysfault"
)

// perLayerPass makes the three per-layer passes for w — the traced
// child-process run, the in-process seam pass, the layer replay — and
// fills res.layer and res.budget.
func perLayerPass(e *env, o options, w workload, objs *objects, res *result) error {
	short := o.window * 3 / 10
	// The untraced reference for overhead, utilisation and the budget:
	// the full run when there was one, else a short one of its own.
	ref, rref := res.a, res.ra
	if ref == nil {
		var err error
		if ref, err = live(e, w, objs, o.seed, short, false, 1); err != nil {
			return err
		}
		rref = ref.reduce()
		res.attempted += ref.attempted
		res.failed += ref.failed
	}
	tr, err := live(e, w, objs, o.seed, short, true, 1)
	if err != nil {
		return err
	}
	rtr := tr.reduce()
	res.attempted += tr.attempted
	res.failed += tr.failed
	res.spans = tr.spans

	m := metrics{}
	res.layer = m
	front := len(tr.procNames) - 1
	verified := float64(len(tr.samples))
	if verified == 0 {
		return fmt.Errorf("traced run verified no reply")
	}

	// obs plane of the process the client talks to.
	m["obs.phase.queue_wait_us"] = phaseMeanUS(tr.before, tr.after, front, "queue_wait")
	m["obs.phase.parse_us"] = phaseMeanUS(tr.before, tr.after, front, "parse")
	m["obs.phase.handler_us"] = phaseMeanUS(tr.before, tr.after, front, "handler")
	m["obs.phase.write_us"] = phaseMeanUS(tr.before, tr.after, front, "write")
	untracedCPU := rref.m["srv_cpu_us_per_reply"]
	m["obs.overhead_pct"] = 100 * (rtr.m["srv_cpu_us_per_reply"] - untracedCPU) / untracedCPU

	// /proc deltas over the whole traced run, summed over processes.
	var utime, stime, syscr, syscw, vol, invol float64
	for p := range tr.procNames {
		b, a := tr.before[p], tr.after[p]
		utime += float64(a.cpu.utimeTicks - b.cpu.utimeTicks)
		stime += float64(a.cpu.stimeTicks - b.cpu.stimeTicks)
		syscr += float64(a.io.syscr - b.io.syscr)
		syscw += float64(a.io.syscw - b.io.syscw)
		vol += float64(a.status.ctxVoluntary - b.status.ctxVoluntary)
		invol += float64(a.status.ctxForced - b.status.ctxForced)
	}
	if utime+stime > 0 {
		m["kernel.sys_share"] = stime / (utime + stime)
	}
	m["kernel.syscr_per_reply"] = syscr / verified
	m["kernel.syscw_per_reply"] = syscw / verified
	m["kernel.ctxsw_vol_per_reply"] = vol / verified
	m["kernel.ctxsw_invol_per_reply"] = invol / verified

	// Server counters: process 0 is the content server on every path.
	delta := func(p int, name string) float64 {
		return float64(field(tr.after[p].rollup, name) - field(tr.before[p].rollup, name))
	}
	if out := delta(0, "bytes_out"); out > 0 {
		m["core.sendfile_byte_share"] = delta(0, "sendfile_bytes") / out
	}
	if w.docroot {
		c := bannerInts(tr.banners[tr.procNames[0]], "replies", "hits", "misses", "evictions")
		if lookups := c["hits"] + c["misses"]; lookups > 0 {
			m["docroot.hit_ratio"] = float64(c["hits"]) / float64(lookups)
		}
		if c["replies"] > 0 {
			m["docroot.evictions_per_reply"] = float64(c["evictions"]) / float64(c["replies"])
		}
	}
	if w.server == srvProxy {
		m["proxy.upstream_dials_per_reply"] = delta(front, "upstream_dials") / verified
		m["proxy.upstream_retries_per_reply"] = delta(front, "upstream_retries") / verified
		m["proc.backend_cpu_us_per_reply"] = rref.procCPUus[0]
		m["proc.proxy_cpu_us_per_reply"] = rref.procCPUus[front]
	}

	// The client, and how far from saturation the servers sat.
	m["client.p90_us"], m["client.p95_us"], m["client.p99_us"] = rref.p90us, rref.p95us, rref.p99us
	m["client.connect_us"], m["client.send_us"], m["client.wait_us"], m["client.body_us"] = spanMeans(tr.spans)
	m["client.cpu_us_per_reply"] = rref.clientCPUus
	for _, u := range rref.srvUtil {
		m["proc.srv_util"] = math.Max(m["proc.srv_util"], u)
	}
	m["proc.build_s"] = e.bins.buildSeconds

	// Seam pass. The driver's own allocations are calibrated on the
	// traced run above: same client, servers out of process.
	seam, err := seamPass(e, w, objs, o.seed, seamReplies)
	if err != nil {
		return err
	}
	res.attempted += seam.replies
	for _, site := range []sysfault.Site{sysfault.SiteEpollWait, sysfault.SiteRead, sysfault.SiteWrite,
		sysfault.SiteSendfile, sysfault.SiteAccept, sysfault.SiteClose, sysfault.SiteConnect} {
		m["sysfault.calls."+site.String()+"_per_reply"] = seam.calls[site]
	}
	m["proc.allocs_per_reply"] = math.Max(0, seam.allocs-tr.driverAllocs)
	m["proc.alloc_bytes_per_reply"] = math.Max(0, seam.allocBytes-tr.driverAllocBytes)
	m["proc.gc_cycles_per_10k_replies"] = seam.gcCycles

	if err := layerReplay(w, objs, o.seed, e.tmpRoot, m); err != nil {
		return err
	}
	res.budget = budget(w, m, seam, untracedCPU)
	for name, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("per-layer metric %s is not finite", name)
		}
	}
	return nil
}

// budgetRow is one line of the per-reply cost budget.
type budgetRow struct {
	layer string
	ns    float64 // unit cost from the replay
	calls float64 // per reply, from the seam pass or the path's shape
}

func (b budgetRow) us() float64 { return b.ns * b.calls / 1e3 }

// budget multiplies each replayed unit cost by how often a reply incurs
// it and holds the sum against the measured server CPU per reply. The
// residual — kernel time and loop glue — is what no layer accounts for:
// the next thing to find. layers + residual = srv_cpu_us_per_reply by
// construction.
func budget(w workload, m metrics, seam seamResult, srvCPUus float64) []budgetRow {
	parse := "httpwire.parse_ns"
	if w.batch > 1 {
		parse = "httpwire.parse_batch8_ns"
	}
	hops := 1.0 // servers that parse the request
	if w.server == srvProxy {
		hops = 2
	}
	rows := []budgetRow{
		{parse, m[parse], hops},
		{"httpwire.serialize_ns", m["httpwire.serialize_ns"], 1},
	}
	if w.docroot {
		hit := m["docroot.hit_ratio"]
		rows = append(rows,
			budgetRow{"docroot.get_hit_ns", m["docroot.get_hit_ns"], hit},
			budgetRow{"docroot.get_miss_ns", m["docroot.get_miss_ns"], 1 - hit})
	} else {
		rows = append(rows, budgetRow{"core.store_get_ns", m["core.store_get_ns"], 1})
	}
	if w.server == srvProxy {
		rows = append(rows,
			budgetRow{"httpwire.respparse_ns", m["httpwire.respparse_ns"], 1},
			budgetRow{"httpwire.forward_ns", m["httpwire.forward_ns"], 1})
	}
	if w.server != srvMT {
		accepts := seam.calls[sysfault.SiteAccept]
		rows = append(rows,
			budgetRow{"reactor.wait_dispatch_ns", m["reactor.wait_dispatch_ns"], seam.calls[sysfault.SiteEpollWait]},
			budgetRow{"reactor.add_remove_ns", m["reactor.add_remove_ns"], accepts},
			budgetRow{"reactor.accept_close_ns", m["reactor.accept_close_ns"], accepts})
	}
	var seamCalls float64
	for _, c := range seam.calls {
		seamCalls += c
	}
	rows = append(rows, budgetRow{"sysfault.passthrough_ns", m["sysfault.passthrough_ns"], seamCalls})
	var layers float64
	for _, r := range rows {
		layers += r.us()
	}
	m["budget.layers_us"] = layers
	m["budget.residual_us"] = srvCPUus - layers
	return rows
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

func direction(higher bool) string {
	if higher {
		return "higher"
	}
	return "lower"
}

// print writes one workload's block: every metric by name with its unit.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "== %s — %s\n", r.w.name, r.w.why)
	if r.a != nil {
		fmt.Fprintf(w, "  end to end (untraced)\n")
		for _, d := range endToEnd {
			fmt.Fprintf(w, "    %-24s %14.4f %-4s  %s is better, bound %2.0f%%\n",
				d.name, r.ra.m[d.name], d.unit, direction(d.higher), 100*d.bound)
		}
		fmt.Fprintf(w, "    slices: replies/s %.0f (spread %.1f%%); srv CPU us/reply %.2f (spread %.1f%%)\n",
			r.ra.sliceRate, 100*spread(r.ra.sliceRate), r.ra.sliceCPU, 100*spread(r.ra.sliceCPU))
		fmt.Fprintf(w, "    set-ups (s): %.4f\n", r.a.setups)
		fmt.Fprintf(w, "    latency samples %d; not gated: client.p90_us %.1f, client.p95_us %.1f, client.p99_us %.1f\n",
			r.ra.samples, r.ra.p90us, r.ra.p95us, r.ra.p99us)
		for i, name := range r.a.procNames {
			fmt.Fprintf(w, "    %-10s proc.srv_util %.3f, CPU %.2f us/reply\n", name, r.ra.srvUtil[i], r.ra.procCPUus[i])
		}
		fmt.Fprintf(w, "    client.cpu_us_per_reply %.2f us\n", r.ra.clientCPUus)
		for _, n := range r.noisy {
			fmt.Fprintf(w, "    noisy: %s\n", n)
		}
	}
	if r.layer != nil {
		fmt.Fprintf(w, "  per layer (traced run, seam pass, layer replay)\n")
		for _, d := range perLayer {
			fmt.Fprintf(w, "    %-38s %14.4f %s\n", d.name, r.layer[d.name], d.unit)
		}
		fmt.Fprintf(w, "  budget (replay ns x calls per reply)\n")
		for _, b := range r.budget {
			fmt.Fprintf(w, "    %-28s %9.1f ns x %7.3f = %8.3f us\n", b.layer, b.ns, b.calls, b.us())
		}
		cpu := r.layer["budget.layers_us"] + r.layer["budget.residual_us"]
		fmt.Fprintf(w, "    budget.layers_us %.3f + budget.residual_us %.3f = srv_cpu_us_per_reply %.3f; kernel.sys_share %.3f\n",
			r.layer["budget.layers_us"], r.layer["budget.residual_us"], cpu, r.layer["kernel.sys_share"])
	}
	fmt.Fprintf(w, "  attempted %d  failed %d\n", r.attempted, r.failed)
	for _, run := range []*liveRun{r.a, r.b} {
		if run == nil {
			continue
		}
		for i, f := range run.failures {
			if i == 5 {
				fmt.Fprintf(w, "    ... and %d more\n", len(run.failures)-i)
				break
			}
			fmt.Fprintf(w, "    failure at %.3fs: %v\n", float64(f.at)/1e9, f.err)
		}
	}
	fmt.Fprintln(w)
}

// printSelfcheck compares the two untraced passes and reports whether
// every end-to-end metric of every workload agrees within its bound.
func printSelfcheck(w io.Writer, results []*result) bool {
	ok := true
	fmt.Fprintf(w, "selfcheck: two untraced passes of one build; worse = how much worse B reads than A\n")
	fmt.Fprintf(w, "%-16s %-22s %14s %14s %8s %6s\n", "workload", "metric", "A", "B", "worse", "bound")
	for _, r := range results {
		if r.a == nil || r.b == nil {
			continue
		}
		for _, d := range endToEnd {
			a, b := r.ra.m[d.name], r.rb.m[d.name]
			// Either direction counts: the passes ran the same code.
			diff := math.Abs(relWorse(a, b, d.higher))
			verdict := ""
			if diff > d.bound {
				verdict = "  EXCEEDS"
				ok = false
			}
			fmt.Fprintf(w, "%-16s %-22s %14.4f %14.4f %7.1f%% %5.0f%%%s\n", r.w.name, d.name, a, b, 100*diff, 100*d.bound, verdict)
		}
	}
	if ok {
		fmt.Fprintln(w, "selfcheck: passed")
	} else {
		fmt.Fprintln(w, "selfcheck: FAILED")
	}
	return ok
}
