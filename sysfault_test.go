//go:build linux

package repro

// sysfault_test.go is the deterministic fault-injection suite: it arms
// the internal/sysfault seam with seeded plans and drives both live
// servers and the proxy tier through the resource-exhaustion failure
// modes the robustness work hardens against — accept-time fd
// exhaustion, ENOBUFS and short writes, sendfile failures mid-response,
// upstream connect storms, and peer resets mid-write.
//
// Every test holds the same three claims:
//
//   - Survival: replies keep flowing under the fault, the post-run
//     probe answers 200, and the watchdog reports no stalled loop.
//   - Accounting: the server's hardening counters agree with the
//     injector's fired-decision log — every absorbed fault is counted,
//     no fault is double-counted.
//   - Determinism: the live injection stream is byte-identical to an
//     offline re-enumeration from the same seed and plan, so any
//     failure here reproduces exactly from SYSFAULT_SEED.
//
// The load side stays on the Go net package (unrouted by the seam), so
// injections fire only in the code under test.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/docroot"
	"repro/internal/mtserver"
	"repro/internal/obs"
	"repro/internal/obs/rollup"
	"repro/internal/overload"
	"repro/internal/proxy"
	"repro/internal/sysfault"
)

// sysfaultSeed returns the suite's injection seed: SYSFAULT_SEED when
// set (the CI matrix sets 1..3), else 1. Every plan in this file is
// evaluated as a pure function of this seed, so a failing run is
// reproduced by re-running with the same value.
func sysfaultSeed(t *testing.T) uint64 {
	t.Helper()
	v := os.Getenv("SYSFAULT_SEED")
	if v == "" {
		return 1
	}
	seed, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		t.Fatalf("bad SYSFAULT_SEED %q: %v", v, err)
	}
	return seed
}

// installFaults compiles plan under seed, arms the process-wide seam,
// and registers both the disarm and the failure-artifact dump. Tests
// disarm explicitly (sysfault.Uninstall) before their post-run probes;
// the cleanup is the safety net that keeps a failed test from leaking
// an armed injector into the next one.
func installFaults(t *testing.T, name string, seed uint64, plan string) *sysfault.Injector {
	t.Helper()
	rules, err := sysfault.ParsePlan(plan)
	if err != nil {
		t.Fatalf("plan %q: %v", plan, err)
	}
	inj := sysfault.New(seed, rules...)
	sysfault.Install(inj)
	t.Cleanup(sysfault.Uninstall)
	dumpDecisionsOnFailure(t, name, plan, inj)
	return inj
}

// dumpDecisionsOnFailure ships the injector's call/fire accounting and
// full fired-decision log as a build artifact when the test fails and
// OBS_ARTIFACT_DIR is set — alongside the trace-ring dump, it is the
// complete record needed to replay the failure offline.
func dumpDecisionsOnFailure(t *testing.T, name, plan string, inj *sysfault.Injector) {
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
		fmt.Fprintf(&b, "seed %d plan %q\n", inj.Seed(), plan)
		st := inj.Stats()
		for s := sysfault.Site(0); int(s) < sysfault.NumSites; s++ {
			if st[s].Calls == 0 {
				continue
			}
			fmt.Fprintf(&b, "%s: calls=%d fires=%d\n", s, st[s].Calls, st[s].Fires)
		}
		for _, d := range inj.Decisions() {
			fmt.Fprintf(&b, "%s\n", d)
		}
		path := filepath.Join(dir, name+"-decisions.txt")
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Logf("writing decision dump: %v", err)
			return
		}
		t.Logf("injection decisions dumped to %s", path)
	})
}

// requireSeededReplay asserts the determinism contract: for each site,
// the decisions the live run fired must match, index for index and
// errno for errno, an offline re-enumeration from a fresh injector
// built with the same seed and plan. Probability rules are a pure hash
// of (seed, site, index) so the replay is exact under any concurrency;
// count-budgeted rules consume their budget in call order, so pass
// only sites driven by a single goroutine when the plan uses count.
func requireSeededReplay(t *testing.T, seed uint64, plan string, inj *sysfault.Injector, sites ...sysfault.Site) {
	t.Helper()
	stats := inj.Stats()
	var total uint64
	for _, st := range stats {
		total += st.Fires
	}
	if total >= 4096 {
		// The retained decision log is capped; comparing a truncated
		// log would report false mismatches.
		t.Logf("replay check skipped: %d fires exceed the retained log", total)
		return
	}
	live := inj.Decisions()
	for _, s := range sites {
		offline := sysfault.New(seed, sysfault.MustParsePlan(plan)...)
		var want []sysfault.Decision
		for i := uint64(0); i < stats[s].Calls; i++ {
			if d, ok := offline.Step(s); ok {
				want = append(want, d)
			}
		}
		var got []sysfault.Decision
		for _, d := range live {
			if d.Site == s {
				got = append(got, d)
			}
		}
		// The shared log interleaves sites in fire order; per-site
		// decisions are compared in index order.
		sort.Slice(got, func(i, j int) bool { return got[i].Index < got[j].Index })
		if len(got) != len(want) {
			t.Errorf("site %s: live run fired %d decisions, offline replay fired %d",
				s, len(got), len(want))
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("site %s: decision %d diverged: live %v, replay %v",
					s, i, got[i], want[i])
			}
		}
	}
}

// requireLaneReplay is requireSeededReplay for servers whose loops draw
// from several fault lanes: each lane's live decisions at site must
// match an offline re-enumeration of that lane's own stream, call count
// for call count. On a single-lane server it is the same check.
func requireLaneReplay(t *testing.T, seed uint64, plan string, inj *sysfault.Injector, site sysfault.Site, lanes ...sysfault.Lane) {
	t.Helper()
	live := inj.Decisions()
	if len(live) >= 4096 {
		t.Logf("replay check skipped: the retained decision log is full")
		return
	}
	for _, lane := range lanes {
		offline := sysfault.New(seed, sysfault.MustParsePlan(plan)...)
		var want []sysfault.Decision
		for i := uint64(0); i < inj.LaneStats(lane)[site].Calls; i++ {
			if d, ok := offline.StepLane(site, lane); ok {
				want = append(want, d)
			}
		}
		var got []sysfault.Decision
		for _, d := range live {
			if d.Site == site && d.Lane == lane {
				got = append(got, d)
			}
		}
		sort.Slice(got, func(i, j int) bool { return got[i].Index < got[j].Index })
		if len(got) != len(want) {
			t.Errorf("site %s lane %d: live run fired %d decisions, offline replay fired %d",
				site, lane, len(got), len(want))
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("site %s lane %d: decision %d diverged: live %v, replay %v",
					site, lane, i, got[i], want[i])
			}
		}
	}
}

// countFires tallies the live decisions at site whose errno matches
// (errno 0 matches short-transfer injections).
func countFires(inj *sysfault.Injector, site sysfault.Site, errno syscall.Errno) int64 {
	var n int64
	for _, d := range inj.Decisions() {
		if d.Site == site && d.Errno == errno {
			n++
		}
	}
	return n
}

// sysfaultGet fetches one object on a fresh connection and returns the
// status and full body — the byte-correctness probe under injection.
func sysfaultGet(addr, path string, timeout time.Duration) (int, []byte, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return 0, nil, err
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(timeout))
	req := "GET " + path + " HTTP/1.1\r\nHost: sut\r\nConnection: close\r\n\r\n"
	if _, err := c.Write([]byte(req)); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(bufio.NewReader(c), nil)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, body, nil
}

// patternBody builds a body whose every byte encodes its offset, so a
// resumed-at-the-wrong-offset or double-delivered range cannot pass
// the byte-equality checks below (an all-zero body would).
func patternBody(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*31 + 7)
	}
	return b
}

// faultServer is one live server wired for the fault suite: stall
// watchdog, observability plane, and typed handles for the hardening
// counters the tests audit.
type faultServer struct {
	addr string
	stop func()
	wd   *overload.Watchdog
	pl   *obs.Plane
	nio  *core.Server
	mt   *mtserver.Server
	px   *proxy.Tier
	// lanes are the fault lanes the server's accepting threads draw from.
	lanes []sysfault.Lane
}

// acceptCounters returns the server's accept-hardening counters.
func (fs faultServer) acceptCounters() (emfile, backoffs int64) {
	switch {
	case fs.nio != nil:
		st := fs.nio.Stats()
		return st.AcceptEMFILE, st.AcceptBackoffs
	case fs.px != nil:
		st := fs.px.Stats()
		return st.AcceptEMFILE, st.AcceptBackoffs
	default:
		st := fs.mt.Stats()
		return st.AcceptEMFILE, st.AcceptBackoffs
	}
}

// startFaultServer starts one server of the given kind. The core runs
// Workers: 1 so its accept and write sites are single-goroutine call
// streams (count-budgeted plans replay exactly); the thread pool runs
// a small fixed pool — its fault handling is per-connection, so thread
// count only affects interleaving, which the probability rules are
// immune to by construction. "core/shards=N" is the core accepting on N
// SO_REUSEPORT listeners, shard i on lane i; "nioproxy" is a one-loop
// tier (lane 0) in front of a "nio" backend of its own.
func startFaultServer(t *testing.T, kind string, store core.Store, root *docroot.Root) faultServer {
	t.Helper()
	wd, err := overload.NewWatchdog(overload.WatchdogConfig{Interval: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	pl := obs.NewPlane(4096)
	switch kind {
	case "nio", "core/shards=1", "core/shards=4":
		cfg := core.DefaultConfig(store)
		cfg.Workers = 1
		fmt.Sscanf(kind, "core/shards=%d", &cfg.Shards) // "nio" leaves the fan-out acceptor
		cfg.Docroot = root
		cfg.Watchdog = wd
		cfg.Obs = pl
		srv, err := core.NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		fs := faultServer{addr: srv.Addr(), stop: func() { srv.Stop(); wd.Stop() }, wd: wd, pl: pl, nio: srv, lanes: []sysfault.Lane{0}}
		for i := 1; i < cfg.Shards; i++ {
			fs.lanes = append(fs.lanes, sysfault.Lane(i))
		}
		t.Cleanup(fs.stop)
		return fs
	case "nioproxy":
		backend := startFaultServer(t, "nio", store, root)
		cfg := proxy.DefaultConfig([]proxy.BackendConfig{{Addr: backend.addr, Name: "b0"}})
		cfg.ProbeEvery = 0
		cfg.Watchdog = wd
		cfg.Obs = pl
		p, err := proxy.NewTier(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
		fs := faultServer{addr: p.Addr(), stop: func() { p.Stop(); wd.Stop() }, wd: wd, pl: pl, px: p, lanes: []sysfault.Lane{0}}
		t.Cleanup(fs.stop)
		return fs
	case "mt":
		cfg := mtserver.DefaultConfig(store)
		cfg.Threads = 8
		cfg.Docroot = root
		cfg.Watchdog = wd
		cfg.Obs = pl
		srv, err := mtserver.NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		fs := faultServer{addr: srv.Addr(), stop: func() { srv.Stop(); wd.Stop() }, wd: wd, pl: pl, mt: srv, lanes: []sysfault.Lane{0}}
		t.Cleanup(fs.stop)
		return fs
	}
	t.Fatalf("unknown server kind %q", kind)
	return faultServer{}
}

// TestSysfaultAcceptEMFILESurvival: fault class 1 — descriptor
// exhaustion at accept time. Injected EMFILE does not consume the
// pending connection (the kernel keeps it queued), so the reserve-fd
// recovery plus the accept-gate backoff must deliver every client
// eventually: each fetch ends in a 200 with exact bytes or, when it
// arrives exactly during a recovery drain, a deliberate 503 shed.
func TestSysfaultAcceptEMFILESurvival(t *testing.T) {
	if testing.Short() {
		t.Skip("integration-scale")
	}
	body := patternBody(4 << 10)
	for _, kind := range []string{"nio", "mt", "core/shards=1", "core/shards=4", "nioproxy"} {
		t.Run(kind, func(t *testing.T) {
			seed := sysfaultSeed(t)
			srv := startFaultServer(t, kind, core.MapStore{"/obj/0": body}, nil)
			name := "sysfault-accept-" + strings.ReplaceAll(kind, "/", "-")
			dumpRingOnFailure(t, name, srv.pl)
			const plan = "accept:emfile:0.5"
			inj := installFaults(t, name, seed, plan)

			oks, sheds := 0, 0
			for i := 0; i < 50; i++ {
				status, got, err := sysfaultGet(srv.addr, "/obj/0", 3*time.Second)
				if err != nil {
					t.Fatalf("fetch %d under accept EMFILE: %v", i, err)
				}
				switch status {
				case 200:
					if !bytes.Equal(got, body) {
						t.Fatalf("fetch %d: body corrupted (%d bytes, want %d)", i, len(got), len(body))
					}
					oks++
				case 503:
					sheds++ // the recovery drain sheds the one connection it frees a slot for
				default:
					t.Fatalf("fetch %d: status %d, want 200 or 503", i, status)
				}
			}
			if oks == 0 {
				t.Fatalf("no successful replies under accept EMFILE (sheds=%d)", sheds)
			}

			sysfault.Uninstall()
			fires := int64(inj.Stats()[sysfault.SiteAccept].Fires)
			if fires == 0 {
				t.Fatal("plan fired no accept faults; the test exercised nothing")
			}
			emfile, backoffs := srv.acceptCounters()
			// The recovery path's own drain accept can draw a fired
			// EMFILE too (uncounted by design), so the counter is
			// bounded by the fires, not equal to them.
			if emfile == 0 || emfile > fires {
				t.Errorf("accept_emfile = %d, want in [1, %d]", emfile, fires)
			}
			if backoffs == 0 {
				t.Error("accept_backoffs = 0: exhausted accepts never engaged the gate")
			}
			t.Logf("%s: %d ok, %d shed, %d injected EMFILE, %d absorbed, %d backoffs",
				kind, oks, sheds, fires, emfile, backoffs)

			requireLaneReplay(t, seed, plan, inj, sysfault.SiteAccept, srv.lanes...)
			requireAlive(t, srv.addr)
			requireWatchdogClean(t, srv.wd)
		})
	}
}

// TestAcceptPendingNetworkErrorIsNotFatal: accept4 also delivers errors
// that were pending on the NEW connection (EHOSTUNREACH, EPROTO,
// ENETDOWN, ...; accept(2) says to treat them like EAGAIN). One such
// client costs itself, never the listener: the server keeps accepting,
// nothing is counted as exhaustion, and what was already open — a
// keep-alive client on the proxy — is still served.
func TestAcceptPendingNetworkErrorIsNotFatal(t *testing.T) {
	body := patternBody(4 << 10)
	for _, kind := range []string{"core/shards=1", "nio", "nioproxy", "mt"} {
		t.Run(kind, func(t *testing.T) {
			srv := startFaultServer(t, kind, core.MapStore{"/obj/0": body}, nil)
			name := "accept-neterr-" + strings.ReplaceAll(kind, "/", "-")
			dumpRingOnFailure(t, name, srv.pl)

			// Opened and used before the fault: through the proxy its
			// upstream connection is pooled, so the backend accepts nothing
			// more and the one injected error lands on the server under test.
			kc, err := net.DialTimeout("tcp", srv.addr, 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer kc.Close()
			kr := bufio.NewReader(kc)
			keepAliveGet := func(when string) {
				t.Helper()
				kc.SetDeadline(time.Now().Add(2 * time.Second))
				if _, err := kc.Write([]byte("GET /obj/0 HTTP/1.1\r\nHost: sut\r\n\r\n")); err != nil {
					t.Fatalf("keep-alive client %s: %v", when, err)
				}
				resp, err := http.ReadResponse(kr, nil)
				if err != nil {
					t.Fatalf("keep-alive client %s: %v", when, err)
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != 200 || !bytes.Equal(got, body) {
					t.Fatalf("keep-alive client %s: status %d, %d bytes, err %v", when, resp.StatusCode, len(got), err)
				}
			}
			keepAliveGet("before the fault")

			const plan = "accept:ehostunreach:1:count=1"
			inj := installFaults(t, name, sysfaultSeed(t), plan)
			for i := 0; i < 5; i++ {
				status, got, err := sysfaultGet(srv.addr, "/obj/0", 2*time.Second)
				if err != nil || status != 200 || !bytes.Equal(got, body) {
					t.Fatalf("fetch %d after a pending network error at accept: status %d, %d bytes, err %v",
						i, status, len(got), err)
				}
			}
			keepAliveGet("after the fault")
			sysfault.Uninstall()

			if fires := inj.Stats()[sysfault.SiteAccept].Fires; fires != 1 {
				t.Fatalf("plan fired %d accept faults, want exactly 1", fires)
			}
			if emfile, backoffs := srv.acceptCounters(); emfile != 0 || (backoffs != 0 && srv.mt == nil) {
				// mtserver paces its retry after ANY accept error; the reactors
				// must not mistake this one for exhaustion.
				t.Errorf("accept_emfile = %d, accept_backoffs = %d after one EHOSTUNREACH", emfile, backoffs)
			}
			requireLaneReplay(t, sysfaultSeed(t), plan, inj, sysfault.SiteAccept, srv.lanes...)
			requireWatchdogClean(t, srv.wd)
		})
	}
}

// TestSysfaultWriteFaultsByteCorrect: fault class 2 — short writes and
// transient ENOBUFS mid-response. Both must be absorbed invisibly:
// every response completes with exact bytes. The core additionally
// proves exact accounting (write_stalls equals the injected ENOBUFS
// count); the thread pool proves its resume loop counted every
// injected partial.
func TestSysfaultWriteFaultsByteCorrect(t *testing.T) {
	if testing.Short() {
		t.Skip("integration-scale")
	}
	body := patternBody(48 << 10)
	plans := map[string]string{
		// ENOBUFS tears a blocking connection down (there is no write
		// re-arm to park on), so the thread-pool plan injects only
		// partials; the reset-mid-write test covers its error path.
		"nio": "write:short:0.25:len=3;write:enobufs:0.1",
		"mt":  "write:short:0.25:len=3",
	}
	for _, kind := range []string{"nio", "mt"} {
		t.Run(kind, func(t *testing.T) {
			seed := sysfaultSeed(t)
			srv := startFaultServer(t, kind, core.MapStore{"/obj/0": body}, nil)
			dumpRingOnFailure(t, "sysfault-write-"+kind, srv.pl)
			plan := plans[kind]
			inj := installFaults(t, "sysfault-write-"+kind, seed, plan)

			for i := 0; i < 40; i++ {
				status, got, err := sysfaultGet(srv.addr, "/obj/0", 3*time.Second)
				if err != nil {
					t.Fatalf("fetch %d under write faults: %v", i, err)
				}
				if status != 200 {
					t.Fatalf("fetch %d: status %d, want 200", i, status)
				}
				if !bytes.Equal(got, body) {
					t.Fatalf("fetch %d: body corrupted under short writes (%d bytes, want %d)",
						i, len(got), len(body))
				}
			}

			sysfault.Uninstall()
			shorts := countFires(inj, sysfault.SiteWrite, 0)
			if shorts == 0 {
				t.Fatal("plan fired no short writes; the resume paths were not exercised")
			}
			if srv.nio != nil {
				st := srv.nio.Stats()
				enobufs := countFires(inj, sysfault.SiteWrite, syscall.ENOBUFS)
				if st.WriteStalls != enobufs {
					t.Errorf("write_stalls = %d, want exactly the %d injected ENOBUFS", st.WriteStalls, enobufs)
				}
				t.Logf("nio: %d shorts, %d ENOBUFS, all 40 bodies exact", shorts, enobufs)
			} else {
				st := srv.mt.Stats()
				if st.ShortWrites < shorts {
					t.Errorf("short_writes = %d, want >= the %d injected partials", st.ShortWrites, shorts)
				}
				t.Logf("mt: %d injected partials, %d resumed, all 40 bodies exact", shorts, st.ShortWrites)
			}

			requireSeededReplay(t, seed, plan, inj, sysfault.SiteWrite)
			requireAlive(t, srv.addr)
			requireWatchdogClean(t, srv.wd)
		})
	}
}

// TestSysfaultSendfileFallbackByteCorrect: fault class 3 — sendfile(2)
// failing mid-response on an fd-backed docroot entry. The response
// must switch to buffered delivery from the same offset: every fetch
// is compared against a pre-injection golden fetch, and each server's
// fallback counter must equal the injected error count exactly (one
// switch per failed call; a switched response never calls sendfile
// again).
func TestSysfaultSendfileFallbackByteCorrect(t *testing.T) {
	if testing.Short() {
		t.Skip("integration-scale")
	}
	dir := t.TempDir()
	body := patternBody(96 << 10)
	if err := os.MkdirAll(filepath.Join(dir, "obj"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "obj", "0"), body, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"nio", "mt"} {
		t.Run(kind, func(t *testing.T) {
			seed := sysfaultSeed(t)
			// MemLimit far below the object size forces the fd-backed
			// entry, so delivery starts on the sendfile path.
			root, err := docroot.New(docroot.Config{Dir: dir, CacheBytes: 1 << 20, MemLimit: 8 << 10})
			if err != nil {
				t.Fatal(err)
			}
			srv := startFaultServer(t, kind, nil, root)
			dumpRingOnFailure(t, "sysfault-sendfile-"+kind, srv.pl)

			status, golden, err := sysfaultGet(srv.addr, "/obj/0", 3*time.Second)
			if err != nil || status != 200 || !bytes.Equal(golden, body) {
				t.Fatalf("pre-injection golden fetch: status %d err %v (%d bytes)", status, err, len(golden))
			}

			const plan = "sendfile:eio:0.35;sendfile:einval:0.35"
			inj := installFaults(t, "sysfault-sendfile-"+kind, seed, plan)
			for i := 0; i < 25; i++ {
				status, got, err := sysfaultGet(srv.addr, "/obj/0", 3*time.Second)
				if err != nil {
					t.Fatalf("fetch %d under sendfile faults: %v", i, err)
				}
				if status != 200 {
					t.Fatalf("fetch %d: status %d, want 200", i, status)
				}
				if !bytes.Equal(got, golden) {
					t.Fatalf("fetch %d: fallback corrupted the body (%d bytes, want %d)",
						i, len(got), len(golden))
				}
			}

			sysfault.Uninstall()
			errFires := countFires(inj, sysfault.SiteSendfile, syscall.EIO) +
				countFires(inj, sysfault.SiteSendfile, syscall.EINVAL)
			if errFires == 0 {
				t.Fatal("plan fired no sendfile errors; the fallback was not exercised")
			}
			var fallbacks int64
			if srv.nio != nil {
				fallbacks = srv.nio.Stats().SendfileFallbacks
			} else {
				fallbacks = srv.mt.Stats().SendfileFallbacks
			}
			if fallbacks != errFires {
				t.Errorf("sendfile_fallbacks = %d, want exactly the %d injected errors", fallbacks, errFires)
			}
			t.Logf("%s: %d injected sendfile errors, %d fallbacks, all 25 bodies exact", kind, errFires, fallbacks)

			requireSeededReplay(t, seed, plan, inj, sysfault.SiteSendfile)
			requireAlive(t, srv.addr)
			requireWatchdogClean(t, srv.wd)
		})
	}
}

// TestSysfaultProxyConnectStormRecovery: fault class 4 — an upstream
// connect-failure storm against the tier. A finite budget of injected
// ECONNREFUSED must drive the ejection/cooldown/readmission machinery
// (not wedge the pool): the backend is ejected, readmitted after the
// cooldown, re-ejected while the storm lasts, and once the budget is
// spent the tier converges back to serving — with a pre-warmed
// upstream socket parked by the re-admission.
func TestSysfaultProxyConnectStormRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("integration-scale")
	}
	seed := sysfaultSeed(t)
	body := patternBody(8 << 10)
	backend := startFaultServer(t, "nio", core.MapStore{"/obj/0": body}, nil)
	dumpRingOnFailure(t, "sysfault-proxy-storm", backend.pl)
	// The backend's admin + a one-sweep rollup collector so a failing
	// run ships the tier's merged telemetry next to the decision log.
	admin, err := obs.NewAdmin("127.0.0.1:0", obs.AdminConfig{
		Name:  "b0",
		Stats: func() []obs.Field { return core.StatsFields(backend.nio.Stats()) },
		Plane: backend.pl,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { admin.Close() })
	coll := rollup.NewCollector()
	dumpRollupOnFailure(t, "sysfault-proxy-storm", coll)
	scr := rollup.NewScraper(coll, []rollup.Target{{Name: "b0", Addr: admin.Addr()}}, time.Hour)
	t.Cleanup(scr.Sweep) // LIFO: the final sweep runs before the dump renders
	p := startProxyTier(t, 1, []proxy.BackendConfig{{Addr: backend.addr, AdminAddr: admin.Addr(), Name: "b0"}}, func(cfg *proxy.Config) {
		cfg.FailAfter = 2
		cfg.RelayAttempts = 2
		cfg.ReadmitAfter = 40 * time.Millisecond
	})

	// Installed before any proxy traffic so no idle upstream socket
	// predates the storm; prob 1 + count=9 refuses exactly the first
	// nine dials, whoever issues them (relay retries or prewarms).
	const plan = "connect:econnrefused:1:count=9"
	inj := installFaults(t, "sysfault-proxy-storm", seed, plan)

	stormErrs := 0
	waitUntil(t, 10*time.Second, func() bool {
		status, got, err := sysfaultGet(p.Addr(), "/obj/0", 2*time.Second)
		if err != nil || status != 200 {
			stormErrs++
			time.Sleep(5 * time.Millisecond)
			return false
		}
		if !bytes.Equal(got, body) {
			t.Fatalf("post-recovery body corrupted (%d bytes, want %d)", len(got), len(body))
		}
		return true
	}, "tier to recover from the connect storm")

	st := p.Stats()
	if fires := int64(inj.Stats()[sysfault.SiteConnect].Fires); fires != 9 {
		t.Errorf("connect fires = %d, want the full budget of 9", fires)
	}
	if st.UpstreamErrors < 9 {
		t.Errorf("upstream_errors = %d, want >= 9 (one per refused dial)", st.UpstreamErrors)
	}
	if st.Ejections == 0 || st.Readmissions == 0 {
		t.Errorf("ejections = %d, readmissions = %d: the storm never cycled the health machinery",
			st.Ejections, st.Readmissions)
	}
	if stormErrs == 0 {
		t.Error("no client-visible errors during the storm: the injection did not bite")
	}
	// The surviving re-admission pre-warms one upstream socket; the
	// dial happens on the loop iteration after the readmitting relay.
	waitUntil(t, 2*time.Second, func() bool { return p.Stats().Prewarms >= 1 },
		"re-admission to pre-warm an upstream connection")

	sysfault.Uninstall()
	for i := 0; i < 10; i++ {
		status, got, err := sysfaultGet(p.Addr(), "/obj/0", 2*time.Second)
		if err != nil || status != 200 || !bytes.Equal(got, body) {
			t.Fatalf("post-storm fetch %d: status %d err %v", i, status, err)
		}
	}
	t.Logf("storm: %d client errors, %d upstream errors, %d ejections, %d readmissions, %d prewarms",
		stormErrs, st.UpstreamErrors, st.Ejections, st.Readmissions, p.Stats().Prewarms)

	// The proxy dials from its single event loop, so the connect site
	// is a single-goroutine stream and the count-budgeted rule replays
	// exactly.
	requireSeededReplay(t, seed, plan, inj, sysfault.SiteConnect)
	requireWatchdogClean(t, backend.wd)
}

// TestSysfaultProxyLocalResShed: the tier-side half of fault class 4 —
// the proxy's own process runs out of sockets (EMFILE at socket(2))
// while dialing. That is the harness's failure, not the backend's: the
// affected requests shed with a tier-attributed 503 and the backend's
// health streak stays untouched, so a local fd storm cannot eject a
// healthy upstream.
func TestSysfaultProxyLocalResShed(t *testing.T) {
	if testing.Short() {
		t.Skip("integration-scale")
	}
	seed := sysfaultSeed(t)
	body := patternBody(8 << 10)
	backend := startFaultServer(t, "nio", core.MapStore{"/obj/0": body}, nil)
	p := startProxyTier(t, 1, []proxy.BackendConfig{{Addr: backend.addr, Name: "b0"}}, nil)

	const plan = "socket:emfile:1:count=3"
	inj := installFaults(t, "sysfault-proxy-localres", seed, plan)

	// No idle upstream exists yet, so each of the first three requests
	// dials, hits the injected EMFILE, and must shed immediately — no
	// retry (the next socket call would hit the same wall).
	for i := 0; i < 3; i++ {
		status, _, err := sysfaultGet(p.Addr(), "/obj/0", 2*time.Second)
		if err != nil {
			t.Fatalf("request %d under socket EMFILE: %v", i, err)
		}
		if status != 503 {
			t.Fatalf("request %d: status %d, want a 503 shed", i, status)
		}
	}
	status, got, err := sysfaultGet(p.Addr(), "/obj/0", 2*time.Second)
	if err != nil || status != 200 || !bytes.Equal(got, body) {
		t.Fatalf("request after budget spent: status %d err %v, want 200", status, err)
	}

	sysfault.Uninstall()
	st := p.Stats()
	if st.LocalResErrors != 3 {
		t.Errorf("local_res_errors = %d, want exactly the 3 injected EMFILEs", st.LocalResErrors)
	}
	if st.Ejections != 0 {
		t.Errorf("ejections = %d: local resource exhaustion blamed a healthy backend", st.Ejections)
	}
	requireSeededReplay(t, seed, plan, inj, sysfault.SiteSocket)
	requireWatchdogClean(t, backend.wd)
}

// TestSysfaultResetMidWriteBounded: fault class 5 — peers resetting
// connections mid-response. Each injected ECONNRESET kills exactly one
// in-flight response (the client sees a truncated body); every other
// response completes byte-exact, the damage stays bounded by the
// injection count, and the core's write_resets counter accounts for
// every one.
func TestSysfaultResetMidWriteBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("integration-scale")
	}
	body := patternBody(48 << 10)
	for _, kind := range []string{"nio", "mt"} {
		t.Run(kind, func(t *testing.T) {
			seed := sysfaultSeed(t)
			srv := startFaultServer(t, kind, core.MapStore{"/obj/0": body}, nil)
			dumpRingOnFailure(t, "sysfault-reset-"+kind, srv.pl)
			const plan = "write:econnreset:0.12"
			inj := installFaults(t, "sysfault-reset-"+kind, seed, plan)

			const attempts = 60
			oks, failures := 0, 0
			for i := 0; i < attempts; i++ {
				status, got, err := sysfaultGet(srv.addr, "/obj/0", 3*time.Second)
				if err != nil {
					failures++ // the injected reset, surfaced as a truncated read
					continue
				}
				if status != 200 {
					t.Fatalf("fetch %d: status %d, want 200", i, status)
				}
				if !bytes.Equal(got, body) {
					t.Fatalf("fetch %d: surviving response corrupted (%d bytes, want %d)",
						i, len(got), len(body))
				}
				oks++
			}

			sysfault.Uninstall()
			fires := int64(inj.Stats()[sysfault.SiteWrite].Fires)
			if fires == 0 {
				t.Fatal("plan fired no resets; the teardown path was not exercised")
			}
			// Bounded damage: one dead response per fire, nothing more.
			if int64(failures) != fires {
				t.Errorf("client failures = %d, want exactly the %d injected resets", failures, fires)
			}
			if oks <= failures {
				t.Errorf("error budget blown: %d ok vs %d failed of %d", oks, failures, attempts)
			}
			if srv.nio != nil {
				if st := srv.nio.Stats(); st.WriteResets != fires {
					t.Errorf("write_resets = %d, want exactly the %d injected resets", st.WriteResets, fires)
				}
			}
			t.Logf("%s: %d ok, %d reset by injection (fires=%d)", kind, oks, failures, fires)

			requireSeededReplay(t, seed, plan, inj, sysfault.SiteWrite)
			requireAlive(t, srv.addr)
			requireWatchdogClean(t, srv.wd)
		})
	}
}
