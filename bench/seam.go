package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/docroot"
	"repro/internal/mtserver"
	"repro/internal/proxy"
	"repro/internal/sysfault"
)

// The in-process seam pass: the same traffic against the real
// constructors in the driver's own process, with a rule-less
// sysfault.Injector installed. The injector counts every call the
// servers make at the syscall seam by site, and runtime.MemStats sees
// their allocations — two things a child process does not show from
// outside. Counts repeat exactly from run to run where the server's
// behaviour does; nothing here is timed.

// seamReplies is how many replies the pass serves; fixed, so counts per
// reply compare across commits.
const seamReplies = 20000

// inproc is a serving path running inside the driver.
type inproc struct {
	addr string
	stop func()
}

// startInproc builds and starts the serving path for w from the same
// public constructors the cmd/ mains use.
func startInproc(e *env, w workload, objs *objects) (*inproc, error) {
	var stops []func()
	stopAll := func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	nio := func() (string, error) {
		cfg := core.DefaultConfig(objs.store)
		cfg.Shards = 1
		if w.docroot {
			dir, err := e.docrootDir(objs)
			if err != nil {
				return "", err
			}
			root, err := docroot.Open(dir, docrootCacheBytes)
			if err != nil {
				return "", err
			}
			cfg.Store, cfg.Docroot = nil, root
			// The cache pins one fd per entry; give them back at stop.
			stops = append(stops, func() { root.ShedFDs(1 << 30) })
		}
		srv, err := core.NewServer(cfg)
		if err != nil {
			return "", err
		}
		if err := srv.Start(); err != nil {
			return "", err
		}
		stops = append(stops, srv.Stop)
		return srv.Addr(), nil
	}
	mt := func() (string, error) {
		cfg := mtserver.DefaultConfig(objs.store)
		cfg.Threads = 64
		srv, err := mtserver.NewServer(cfg)
		if err != nil {
			return "", err
		}
		if err := srv.Start(); err != nil {
			return "", err
		}
		stops = append(stops, srv.Stop)
		return srv.Addr(), nil
	}
	relay := func(backend string) (string, error) {
		cfg := proxy.DefaultConfig([]proxy.BackendConfig{{Addr: backend, Name: "b0"}})
		cfg.ProbeEvery = 0
		tier, err := proxy.NewTier(cfg, 1)
		if err != nil {
			return "", err
		}
		if err := tier.Start(); err != nil {
			return "", err
		}
		stops = append(stops, tier.Stop)
		return tier.Addr(), nil
	}
	var addr string
	var err error
	switch w.server {
	case srvNio:
		addr, err = nio()
	case srvMT:
		addr, err = mt()
	case srvProxy:
		if addr, err = nio(); err == nil {
			addr, err = relay(addr)
		}
	}
	if err != nil {
		stopAll()
		return nil, fmt.Errorf("in-process %s: %w", w.name, err)
	}
	return &inproc{addr: addr, stop: stopAll}, nil
}

// seamResult is what the pass counted.
type seamResult struct {
	replies    int64
	calls      [sysfault.NumSites]float64 // per reply
	allocs     float64                    // per reply, driver's own included
	allocBytes float64
	gcCycles   float64 // per 10k replies
}

// seamPass serves exactly quota replies in-process and counts.
func seamPass(e *env, w workload, objs *objects, seed uint64, quota int64) (seamResult, error) {
	var res seamResult
	inj := sysfault.New(seed)
	sysfault.Install(inj)
	defer sysfault.Uninstall()
	srv, err := startInproc(e, w, objs)
	if err != nil {
		return res, err
	}
	defer srv.stop()
	if err := firstReply(w, srv.addr, objs, seed); err != nil {
		return res, fmt.Errorf("in-process %s: first reply: %w", w.name, err)
	}

	f, err := newFleet(w, srv.addr, objs, seed, e.nconn, clock{base: time.Now()}, false)
	if err != nil {
		return res, err
	}
	var left atomic.Int64
	left.Store(quota)
	for _, c := range f.conns {
		c.quota = &left
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s0 := inj.Stats()
	f.start()
	f.wg.Wait()
	s1 := inj.Stats()
	runtime.ReadMemStats(&m1)

	for _, c := range f.conns {
		res.replies += int64(len(c.samples))
		if len(c.failures) > 0 {
			return res, fmt.Errorf("in-process %s: %w", w.name, c.failures[0].err)
		}
	}
	if res.replies != quota {
		return res, fmt.Errorf("in-process %s: %d replies verified, want exactly %d", w.name, res.replies, quota)
	}
	n := float64(res.replies)
	for i := range res.calls {
		res.calls[i] = float64(s1[i].Calls-s0[i].Calls) / n
	}
	res.allocs = float64(m1.Mallocs-m0.Mallocs) / n
	res.allocBytes = float64(m1.TotalAlloc-m0.TotalAlloc) / n
	res.gcCycles = float64(m1.NumGC-m0.NumGC) / n * 1e4
	return res, nil
}
