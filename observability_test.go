//go:build linux

package repro

// observability_test.go race-stress-tests the live observability plane:
// both servers run under real load while a scraper goroutine hammers the
// admin endpoint's /stats and /trace, and the scraped numbers must stay
// internally consistent the whole time. The consistency assertions are
// deliberately phrased across *consecutive* scrapes: every trace counter
// is monotone, so for any invariant "A never exceeds B" that holds at
// each instant, A's value in scrape i must not exceed B's value in scrape
// i+1 (scrape i finished before scrape i+1 began) — sound even though a
// scrape reads racing counters one at a time.
//
// The tracing overhead budget has two enforcement points: this file's
// integration gate is deliberately loose (wall-clock goodput on a busy
// CI box is noisy), while BenchmarkDocrootDelivery's traced modes carry
// the tight per-request comparison.

import (
	"bufio"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/loadgen"
	"repro/internal/mtserver"
	"repro/internal/obs"
	"repro/internal/surge"
)

// dumpRingOnFailure registers a cleanup that, when the test has failed
// and OBS_ARTIFACT_DIR is set (the CI race job sets it), writes the
// plane's full ring dump there so the failure's event history ships as
// a build artifact.
func dumpRingOnFailure(t *testing.T, name string, pl *obs.Plane) {
	t.Cleanup(func() {
		dir := os.Getenv("OBS_ARTIFACT_DIR")
		if !t.Failed() || dir == "" {
			return
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Logf("artifact dir: %v", err)
			return
		}
		var b strings.Builder
		obs.RenderTrace(&b, pl, obs.Filter{})
		path := filepath.Join(dir, name+"-trace.txt")
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Logf("writing ring dump: %v", err)
			return
		}
		t.Logf("trace ring dumped to %s", path)
	})
}

// scrapeAdmin fetches one /stats document and parses it into name →
// value. Numeric parse failures fail the test: the format is a contract.
func scrapeAdmin(t *testing.T, addr string) map[string]float64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/stats")
	if err != nil {
		t.Fatalf("scraping /stats: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading /stats: %v", err)
	}
	vals := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		name, raw, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("unparseable /stats line %q", line)
		}
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			t.Fatalf("unparseable /stats value in %q: %v", line, err)
		}
		vals[name] = v
	}
	return vals
}

// obsTarget is one server wired to a plane and an admin endpoint.
type obsTarget struct {
	name    string
	addr    string
	admin   string
	plane   *obs.Plane
	replies func() int64
	stop    func()
}

func startObsCore(t *testing.T, store core.Store, pl *obs.Plane) obsTarget {
	t.Helper()
	cfg := core.DefaultConfig(store)
	cfg.Obs = pl
	s, err := core.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ad, err := obs.NewAdmin("127.0.0.1:0", obs.AdminConfig{
		Stats: func() []obs.Field { return core.StatsFields(s.Stats()) },
		Plane: pl,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	return obsTarget{"core", s.Addr(), ad.Addr(), pl,
		func() int64 { return s.Stats().Replies },
		func() { s.Stop(); ad.Close() }}
}

func startObsMt(t *testing.T, store core.Store, pl *obs.Plane) obsTarget {
	t.Helper()
	cfg := mtserver.DefaultConfig(store)
	cfg.Threads = 8
	cfg.Obs = pl
	s, err := mtserver.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ad, err := obs.NewAdmin("127.0.0.1:0", obs.AdminConfig{
		Stats: func() []obs.Field { return mtserver.StatsFields(s.Stats()) },
		Plane: pl,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	return obsTarget{"mtserver", s.Addr(), ad.Addr(), pl,
		func() int64 { return s.Stats().Replies },
		func() { s.Stop(); ad.Close() }}
}

func TestObservabilityUnderLoad(t *testing.T) {
	scfg := surge.DefaultConfig()
	scfg.NumObjects = 200
	set, err := surge.BuildObjectSet(scfg, dist.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	store := core.NewSurgeStore(set, scfg.MaxObjectBytes, 8)

	for _, mk := range []func(*testing.T, core.Store, *obs.Plane) obsTarget{startObsCore, startObsMt} {
		pl := obs.NewPlane(1 << 12)
		tgt := mk(t, store, pl)
		t.Run(tgt.name, func(t *testing.T) {
			defer tgt.stop()
			dumpRingOnFailure(t, "under-load-"+tgt.name, pl)

			// Scraper: hammer /stats and /trace as fast as the admin plane
			// answers while the data plane is under load.
			scrapes := make([]map[string]float64, 0, 256)
			scrapeDone := make(chan struct{})
			stopScrape := make(chan struct{})
			go func() {
				defer close(scrapeDone)
				for {
					select {
					case <-stopScrape:
						return
					default:
					}
					scrapes = append(scrapes, scrapeAdmin(t, tgt.admin))
					resp, err := http.Get("http://" + tgt.admin + "/trace?last=64")
					if err != nil {
						t.Errorf("scraping /trace: %v", err)
						return
					}
					if _, err := io.Copy(io.Discard, resp.Body); err != nil {
						t.Errorf("reading /trace: %v", err)
					}
					resp.Body.Close()
					if resp.StatusCode != 200 {
						t.Errorf("/trace answered %d", resp.StatusCode)
						return
					}
				}
			}()

			res, err := loadgen.Run(loadgen.Options{
				Addr:       tgt.addr,
				Clients:    12,
				Warmup:     100 * time.Millisecond,
				Duration:   900 * time.Millisecond,
				Timeout:    5 * time.Second,
				ThinkScale: 0.001,
				Seed:       42,
				Workload:   scfg,
				Objects:    set,
			})
			close(stopScrape)
			<-scrapeDone
			if err != nil {
				t.Fatalf("load run: %v", err)
			}
			if res.Replies == 0 {
				t.Fatal("load run produced no replies")
			}
			if len(scrapes) < 2 {
				t.Fatalf("only %d scrapes completed", len(scrapes))
			}
			t.Logf("%d scrapes across %d replies", len(scrapes), res.Replies)

			monotone := []string{
				"server.accepted", "server.replies", "server.bytes_out",
				"trace.accept", "trace.close", "trace.handler", "trace.shed",
				"phase.handler.count", "phase.queue_wait.count",
			}
			for i, s := range scrapes {
				// Gauges and counters are never negative, at any instant.
				for name, v := range s {
					if v < 0 && !strings.HasSuffix(name, ".mean") {
						t.Fatalf("scrape %d: %s = %v went negative", i, name, v)
					}
				}
				// Phase histogram counts agree with the event counters that
				// feed them (same Record call bumps both; the scrape may
				// catch one bumped and not yet the other, hence the
				// cross-scrape comparison below).
				if i == 0 {
					continue
				}
				next := scrapes[i]
				prev := scrapes[i-1]
				for _, name := range monotone {
					if prev[name] > next[name] {
						t.Fatalf("scrape %d→%d: %s went backwards (%v → %v)",
							i-1, i, name, prev[name], next[name])
					}
				}
				// A handler-phase sample is recorded only after the reply
				// counter it explains was bumped, so no scrape may ever show
				// more handler samples than a later scrape shows replies.
				if prev["trace.handler"] > next["server.replies"] {
					t.Fatalf("scrape %d→%d: handler events (%v) exceed replies (%v)",
						i-1, i, prev["trace.handler"], next["server.replies"])
				}
				// Every Close has an earlier Accept.
				if prev["trace.close"] > next["trace.accept"] {
					t.Fatalf("scrape %d→%d: closes (%v) exceed accepts (%v)",
						i-1, i, prev["trace.close"], next["trace.accept"])
				}
				// The phase histograms are fed by the same Record calls that
				// bump the trace counters: the earlier scrape's phase count
				// cannot exceed the later scrape's event count.
				if prev["phase.handler.count"] > next["trace.handler"] {
					t.Fatalf("scrape %d→%d: phase.handler.count (%v) exceeds trace.handler (%v)",
						i-1, i, prev["phase.handler.count"], next["trace.handler"])
				}
			}

			// Quiesce: loadgen has exited, so every connection it opened
			// closes; the traced-connections gauge must return to zero and
			// the lifecycle must balance exactly.
			waitUntil(t, 5*time.Second, func() bool { return pl.OpenConns() == 0 },
				"traced open-connection gauge to drain to zero")
			if a, c := pl.Count(obs.Accept), pl.Count(obs.Close); a != c {
				t.Fatalf("lifecycle unbalanced after quiesce: %d accepts, %d closes", a, c)
			}
			// At quiescence the handler phase explains every reply.
			if h, r := pl.Count(obs.Handler), tgt.replies(); h != r {
				t.Fatalf("handler events (%d) != replies (%d) at quiescence", h, r)
			}
		})
	}
}

// TestObservabilityOverheadGate holds the recorder to its budget by
// counting, not by racing two timed windows against each other: a fixed
// amount of work (one keep-alive connection, overheadReplies requests
// one at a time) is run once plain and once traced, and the plane's
// cost is what it did — Record calls per reply, an exact count — times
// what one Record costs, timed in-process in a tight loop (the fastest
// of several batches, so a descheduled batch cannot inflate it), set
// against the plain run's time per reply. A loaded host stretches that
// baseline and so only loosens the gate; the count is pinned exactly,
// and that pin is what catches a new recording site on the hot path.
// The percentage itself, on dedicated CPUs, is bench's
// obs.overhead_pct.
func TestObservabilityOverheadGate(t *testing.T) {
	const (
		overheadReplies = 4000
		// header-read, parse, handler, write-complete per reply; accept,
		// queue-wait, first-byte and close once for the connection.
		recordsPerReply = 4
		recordsPerConn  = 4
		gatePct         = 5.0
	)
	fixedWork := func(pl *obs.Plane) time.Duration {
		cfg := core.DefaultConfig(robustStore())
		cfg.Shards = 1
		cfg.Obs = pl
		s, err := core.NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		defer s.Stop()
		c, err := net.DialTimeout("tcp", s.Addr(), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetDeadline(time.Now().Add(60 * time.Second))
		br := bufio.NewReader(c)
		begin := time.Now()
		for i := 0; i < overheadReplies; i++ {
			if _, err := io.WriteString(c, "GET /hello HTTP/1.1\r\nHost: sut\r\n\r\n"); err != nil {
				t.Fatal(err)
			}
			resp, err := http.ReadResponse(br, nil)
			if err != nil {
				t.Fatalf("reply %d: %v", i, err)
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil || resp.StatusCode != 200 {
				t.Fatalf("reply %d: status %d, body err %v", i, resp.StatusCode, err)
			}
		}
		elapsed := time.Since(begin)
		c.Close()
		waitUntil(t, 5*time.Second, func() bool { return s.Stats().ConnsOpen == 0 }, "the connection to close")
		if got := s.Stats().Replies; got != overheadReplies {
			t.Fatalf("replies = %d, want %d", got, overheadReplies)
		}
		return elapsed
	}
	plain := fixedWork(nil)
	pl := obs.NewPlane(1 << 12)
	fixedWork(pl)
	var records int64
	for k := 0; k < obs.NumKinds; k++ {
		records += pl.Count(obs.Kind(k))
	}
	if want := int64(overheadReplies*recordsPerReply + recordsPerConn); records != want {
		t.Errorf("the traced run made %d Record calls for %d replies on one connection, want exactly %d (%d per reply + %d per connection)",
			records, overheadReplies, want, recordsPerReply, recordsPerConn)
	}
	if raceEnabled {
		t.Skip("race instrumentation multiplies the cost of a Record; the count above is what the race run checks")
	}
	// One Record, timed where nothing but the recorder runs.
	const batch = 100_000
	v := obs.NewPlane(1 << 12).View(0)
	recordNs := math.Inf(1)
	for b := 0; b < 5; b++ {
		begin := time.Now()
		for i := 0; i < batch; i++ {
			v.Record(1, obs.Handler, time.Microsecond)
		}
		recordNs = math.Min(recordNs, float64(time.Since(begin).Nanoseconds())/batch)
	}
	perReplyNs := float64(plain.Nanoseconds()) / overheadReplies
	pct := 100 * float64(records) / overheadReplies * recordNs / perReplyNs
	t.Logf("%.2f records per reply x %.0f ns per Record = %.0f ns against %.0f ns per plain reply: %.1f%%",
		float64(records)/overheadReplies, recordNs, float64(records)/overheadReplies*recordNs, perReplyNs, pct)
	if pct > gatePct {
		t.Fatalf("recording costs %.1f%% of a reply, gate %.0f%%", pct, gatePct)
	}
}
