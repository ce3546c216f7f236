package main

import (
	"testing"

	"repro/internal/sysfault"
)

// One short in-process run per workload shape: the real constructors,
// the real client, a fixed number of replies instead of a fixed time, so
// the test asserts counts and never a duration.
func TestWorkloadShapesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and, for the docroot shape, writes the SURGE set to disk")
	}
	objs, err := buildObjects(objectSetSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(objs.small) != 502 || len(objs.large) != 60 {
		t.Errorf("object-set seed 7: %d small and %d large objects; the README says 502 and 60", len(objs.small), len(objs.large))
	}
	const quota = 400
	e := &env{buildDir: t.TempDir(), nconn: 2}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := seamPass(e, w, objs, 7, quota)
			if err != nil {
				t.Fatal(err)
			}
			if res.replies != quota {
				t.Fatalf("%d replies verified, want %d", res.replies, quota)
			}
			calls := func(s sysfault.Site) float64 { return res.calls[s] }
			switch w.name {
			case "nio_small":
				// serveStore queues header and body as two segments and
				// flush writes each with its own write(2).
				if got := calls(sysfault.SiteWrite); got != 2 {
					t.Errorf("write(2) per reply = %v, want 2", got)
				}
			case "nio_pipelined":
				if got := calls(sysfault.SiteWrite); got != 2 {
					t.Errorf("write(2) per reply = %v, want 2 (16 per batch of 8)", got)
				}
				if got := calls(sysfault.SiteRead); got >= 1 {
					t.Errorf("read(2) per reply = %v; a batch of 8 should share its reads", got)
				}
			case "nio_churn":
				// The seam counts a close after the real close(2), which is
				// what the client's EOF waits for: each connection's last
				// close may land after the count is read.
				if got := calls(sysfault.SiteClose); got > 1 || got < 1-2.0/quota {
					t.Errorf("close(2) per reply = %v, want 1 (less at most one per connection)", got)
				}
				if got := calls(sysfault.SiteAccept); got < 1 {
					t.Errorf("accept4(2) per reply = %v, want at least 1", got)
				}
			case "mt_small":
				if got := calls(sysfault.SiteEpollWait); got != 0 {
					t.Errorf("the thread pool made %v epoll_wait calls per reply at the seam", got)
				}
			case "proxy_small":
				if got := calls(sysfault.SiteWrite); got < 4 {
					t.Errorf("write(2) per reply through the proxy = %v, want at least 4 (request up, two segments back, reply down)", got)
				}
			}
			if sysfault.Active() != nil {
				t.Error("the injector is still installed after the pass")
			}
		})
	}
}

// A server that answers wrongly must fail the run, with no latency
// sample for the bad reply.
func TestWrongRepliesFail(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a server")
	}
	served, err := buildObjects(7)
	if err != nil {
		t.Fatal(err)
	}
	expected, err := buildObjects(8) // the client believes in another object set
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workloadByName("nio_small")
	srv, err := startInproc(&env{buildDir: t.TempDir(), nconn: 1}, w, served)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.stop()
	if err := firstReply(w, srv.addr, expected, 8); err == nil {
		t.Error("a reply from the wrong object set verified")
	}
}
