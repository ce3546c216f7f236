// Command mtserver runs the live thread-pool baseline (the paper's
// "httpd2" analogue: Apache 2 worker-MPM behaviour) on a SURGE object
// population.
//
// Usage:
//
//	mtserver -port 8081 -threads 64 -keepalive 15s
//
// Stop with SIGINT: the server drains (finishes in-flight responses, up
// to -drain) before exiting.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/docroot"
	"repro/internal/mtserver"
	"repro/internal/obs"
	"repro/internal/overload"
	"repro/internal/surge"
)

func main() {
	port := flag.Int("port", 8081, "port to listen on (0 picks a free port)")
	threads := flag.Int("threads", 64, "worker-pool size")
	keepAlive := flag.Duration("keepalive", 15*time.Second, "idle keep-alive timeout (0 = never disconnect)")
	objects := flag.Int("objects", 2000, "SURGE object population size")
	seed := flag.Uint64("seed", 7, "object-set seed")
	docrootDir := flag.String("docroot", "", `serve real files from disk instead of memory: a directory path, or "tmp" to materialize the SURGE set into a fresh temp dir ("" = in-memory store)`)
	cacheBytes := flag.Int64("cache-bytes", 64<<20, "docroot content-cache budget in bytes (0 disables caching)")
	maxConns := flag.Int("max-conns", 0, "shed connections above this many with an immediate 503 (0 = unlimited; useful values are <= -threads)")
	targetP95 := flag.Duration("target-p95", 0, "adaptive overload control: shed accepts as needed to hold p95 first-response latency near this target (0 = disabled)")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After advertised on adaptive sheds (rounded up to whole seconds)")
	watchdog := flag.Duration("watchdog", 0, "flag pool threads whose handlers stall longer than this (0 = disabled)")
	admin := flag.String("admin", "", `admin introspection listener, e.g. "127.0.0.1:9091": serves /stats, /trace, and /debug/pprof/ and enables lifecycle tracing ("" = disabled)`)
	traceRing := flag.Int("trace-ring", 1<<14, "trace ring capacity in events (rounded up to a power of two)")
	drain := flag.Duration("drain", 5*time.Second, "graceful-drain budget on SIGINT")
	flag.Parse()

	scfg := surge.DefaultConfig()
	scfg.NumObjects = *objects
	set, err := surge.BuildObjectSet(scfg, dist.NewRNG(*seed))
	if err != nil {
		log.Fatalf("building object set: %v", err)
	}
	cfg := mtserver.DefaultConfig(nil)
	var root *docroot.Root
	if *docrootDir != "" {
		var cleanup func()
		root, cleanup = setupDocroot(*docrootDir, set, scfg.MaxObjectBytes, *seed+1, *cacheBytes)
		defer cleanup()
		cfg.Docroot = root
	} else {
		cfg.Store = core.NewSurgeStore(set, scfg.MaxObjectBytes, *seed+1)
	}
	cfg.Port = *port
	cfg.Threads = *threads
	cfg.KeepAlive = *keepAlive
	cfg.MaxConns = *maxConns
	var ctl *overload.Controller
	if *targetP95 > 0 {
		ctl, err = overload.NewController(overload.Config{TargetP95: *targetP95, RetryAfter: *retryAfter})
		if err != nil {
			log.Fatalf("overload controller: %v", err)
		}
		cfg.Admission = ctl
	}
	var wd *overload.Watchdog
	if *watchdog > 0 {
		wd, err = overload.NewWatchdog(overload.WatchdogConfig{
			Interval: *watchdog,
			OnStall: func(s overload.Stall) {
				log.Printf("watchdog: %s stalled for %v", s.Name, s.Age)
			},
		})
		if err != nil {
			log.Fatalf("watchdog: %v", err)
		}
		defer wd.Stop()
		cfg.Watchdog = wd
	}
	var plane *obs.Plane
	if *admin != "" {
		if *traceRing <= 0 {
			log.Fatalf("-trace-ring must be positive, got %d", *traceRing)
		}
		plane = obs.NewPlane(*traceRing)
		cfg.Obs = plane
	}
	srv, err := mtserver.NewServer(cfg)
	if err != nil {
		log.Fatalf("starting server: %v", err)
	}
	if plane != nil {
		ad, err := obs.NewAdmin(*admin, obs.AdminConfig{
			Stats: func() []obs.Field { return mtserver.StatsFields(srv.Stats()) },
			Plane: plane,
		})
		if err != nil {
			log.Fatalf("admin endpoint: %v", err)
		}
		defer ad.Close()
		fmt.Printf("admin endpoint on http://%s (/stats /trace /debug/pprof/)\n", ad.Addr())
	}
	if err := srv.Start(); err != nil {
		log.Fatalf("starting server: %v", err)
	}
	fmt.Printf("thread-pool server listening on %s (%d threads, keep-alive %v)\n",
		srv.Addr(), *threads, *keepAlive)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	if !srv.Drain(*drain) {
		fmt.Fprintf(os.Stderr, "drain budget %v exceeded; remaining connections cut\n", *drain)
	}
	st := srv.Stats()
	fmt.Printf("accepted=%d replies=%d bytes=%d idle-closes=%d 400s=%d shed=%d panics=%d\n",
		st.Accepted, st.Replies, st.BytesOut, st.IdleCloses, st.BadRequest, st.Shed, st.HandlerPanics)
	if ctl != nil {
		cs := ctl.Stats()
		fmt.Printf("overload: admitted=%d shed=%d rate=%.0f/s last-p95=%v steps=%d down/%d up\n",
			cs.Admitted, cs.Shed, cs.Rate, cs.LastP95, cs.Decreases, cs.Increases)
	}
	if wd != nil {
		ws := wd.Stats()
		fmt.Printf("watchdog: stalls=%d recovered=%d active=%d max-stall=%v\n",
			ws.Stalls, ws.Recovered, ws.Active, ws.MaxStallAge)
	}
	if root != nil {
		cs := root.Stats()
		fmt.Printf("304s=%d sendfile-bytes=%d cache: hits=%d misses=%d evictions=%d cached-bytes=%d errors=%d\n",
			st.NotModified, st.SendfileBytes, cs.Hits, cs.Misses, cs.Evictions, cs.CachedBytes, cs.Errors)
	}
}

// setupDocroot resolves the -docroot flag: "tmp" materializes the SURGE
// set into a fresh temp directory (removed by the returned cleanup);
// anything else is served as-is.
func setupDocroot(spec string, set *surge.ObjectSet, maxObjectBytes int64, seed uint64, cacheBytes int64) (*docroot.Root, func()) {
	cleanup := func() {}
	dir := spec
	if spec == "tmp" {
		d, err := os.MkdirTemp("", "surge-docroot-")
		if err != nil {
			log.Fatalf("docroot: %v", err)
		}
		if err := docroot.MaterializeSurge(d, set, maxObjectBytes, seed); err != nil {
			os.RemoveAll(d)
			log.Fatalf("docroot: %v", err)
		}
		dir = d
		cleanup = func() { os.RemoveAll(d) }
	}
	root, err := docroot.Open(dir, cacheBytes)
	if err != nil {
		cleanup()
		log.Fatalf("docroot: %v", err)
	}
	return root, cleanup
}
