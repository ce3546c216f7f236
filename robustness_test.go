//go:build linux

package repro

// robustness_test.go is the active half of the paper's robustness claim.
// The loadgen integration tests observe how the two architectures degrade
// under honest overload; this suite *provokes* the failure modes with
// internal/faultline and checks the overload-control machinery holds:
//
//   - a slowloris herd (dribbled request bytes) exhausts the thread pool
//     and collapses mtserver goodput, while the event-driven core with a
//     HeaderTimeout sheds the attackers and keeps serving healthy
//     clients at line rate;
//   - a connection flood against MaxConns admission control is bounded:
//     ConnsOpen never exceeds the cap, excess clients get clean 503s,
//     and admitted clients keep being served;
//   - Drain delivers in-flight responses through a bandwidth-capped
//     client link before closing, on both servers — including responses
//     mid-sendfile from the disk-backed docroot;
//   - a 4x overload ramp against a small thread pool: the adaptive
//     admission controller holds client p95 near its target by shedding,
//     where the static configuration lets queueing delay blow through it;
//   - an injected handler panic costs one connection a 500, never the
//     process; an injected wedge is flagged by the stall watchdog within
//     about one heartbeat interval and recovers when the hang clears;
//   - a request whose framing two parsers could read differently (a
//     Transfer-Encoding, two disagreeing Content-Lengths) is refused with
//     400 + close by both servers and by the proxy, which forwards
//     nothing of it.

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/docroot"
	"repro/internal/faultline"
	"repro/internal/loadgen"
	"repro/internal/mtserver"
	"repro/internal/obs"
	"repro/internal/overload"
	"repro/internal/proxy"
	"repro/internal/surge"
)

func robustStore() core.MapStore {
	return core.MapStore{
		"/hello": []byte("hello world"),
		"/big":   make([]byte, 1<<20),
	}
}

var probeRequest = []byte("GET /hello HTTP/1.1\r\nHost: sut\r\nUser-Agent: probe/1.0\r\n\r\n")

// measureGoodput runs `clients` healthy keep-alive clients against addr
// for the window and returns successful replies/second. Clients redial
// after any error, so resets and timeouts cost time but never wedge the
// probe.
func measureGoodput(t *testing.T, addr string, clients int, window time.Duration) float64 {
	t.Helper()
	var replies atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var conn net.Conn
			var r *bufio.Reader
			defer func() {
				if conn != nil {
					conn.Close()
				}
			}()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if conn == nil {
					c, err := net.DialTimeout("tcp", addr, 250*time.Millisecond)
					if err != nil {
						select {
						case <-stop:
							return
						case <-time.After(5 * time.Millisecond):
						}
						continue
					}
					conn, r = c, bufio.NewReader(c)
				}
				conn.SetDeadline(time.Now().Add(500 * time.Millisecond))
				if _, err := conn.Write(probeRequest); err != nil {
					conn.Close()
					conn = nil
					continue
				}
				resp, err := http.ReadResponse(r, nil)
				if err != nil {
					conn.Close()
					conn = nil
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == 200 {
					replies.Add(1)
				}
				if resp.Close {
					conn.Close()
					conn = nil
				}
			}
		}()
	}
	time.Sleep(window)
	close(stop)
	wg.Wait()
	return float64(replies.Load()) / window.Seconds()
}

// medianGoodput is the median of n back-to-back measureGoodput windows.
// A ratio of two single windows is a ratio of two noisy numbers: on a
// busy machine one lucky baseline window reads as a collapse. A real
// collapse (the thread pool's is 5x or more) moves the median just the
// same.
func medianGoodput(t *testing.T, addr string, clients int, window time.Duration, n int) float64 {
	t.Helper()
	rates := make([]float64, n)
	for i := range rates {
		rates[i] = measureGoodput(t, addr, clients, window)
	}
	sort.Float64s(rates)
	return rates[n/2]
}

// slowlorisHerd aims `conns` persistent slow-read attackers at upstream
// through a faultline proxy that dribbles their request bytes at 8 B/s.
// Attackers redial whenever the server sheds them, so the pressure is
// continuous. The returned stop function tears everything down.
func slowlorisHerd(t *testing.T, upstream string, conns int) (proxy *faultline.Proxy, stop func()) {
	t.Helper()
	p, err := faultline.New(faultline.Config{
		Upstream: upstream,
		Seed:     7,
		Plan:     faultline.Slowloris(8),
	})
	if err != nil {
		t.Fatal(err)
	}
	stopc := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopc:
					return
				default:
				}
				c, err := net.DialTimeout("tcp", p.Addr(), time.Second)
				if err != nil {
					select {
					case <-stopc:
						return
					case <-time.After(10 * time.Millisecond):
					}
					continue
				}
				// The whole request reaches the proxy at once; the proxy
				// dribbles it upstream one byte every 125 ms.
				c.Write(probeRequest)
				c.SetReadDeadline(time.Now().Add(60 * time.Second))
				io.Copy(io.Discard, c) // hold until the server or proxy kills it
				c.Close()
			}
		}()
	}
	return p, func() {
		close(stopc)
		p.Close()
		wg.Wait()
	}
}

// TestSlowlorisCollapsesThreadPool pins every mtserver worker thread
// with dribbled headers and shows healthy-client goodput dropping to
// (near) zero — the paper's saturated-pool regime, provoked on demand.
func TestSlowlorisCollapsesThreadPool(t *testing.T) {
	cfg := mtserver.DefaultConfig(robustStore())
	cfg.Threads = 8
	cfg.KeepAlive = 15 * time.Second
	srv, err := mtserver.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	baseline := measureGoodput(t, srv.Addr(), 4, 700*time.Millisecond)
	if baseline < 50 {
		t.Fatalf("implausible loopback baseline %.0f replies/s", baseline)
	}

	_, stopAttack := slowlorisHerd(t, srv.Addr(), 32)
	defer stopAttack()

	// Wait until the herd has pinned the entire pool.
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().ConnsOpen < int64(cfg.Threads) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if open := srv.Stats().ConnsOpen; open < int64(cfg.Threads) {
		t.Fatalf("herd failed to pin the pool: %d/%d threads", open, cfg.Threads)
	}

	attacked := measureGoodput(t, srv.Addr(), 4, 700*time.Millisecond)
	if attacked > baseline*0.05 {
		t.Fatalf("thread pool survived slowloris: %.0f replies/s attacked vs %.0f baseline",
			attacked, baseline)
	}
}

// TestSlowlorisRepelledByHeaderTimeout aims the same herd at the
// event-driven server with a HeaderTimeout and shows goodput holding at
// >= 80%% of the unattacked rate while the sweeper resets the attackers.
func TestSlowlorisRepelledByHeaderTimeout(t *testing.T) {
	cfg := core.DefaultConfig(robustStore())
	cfg.HeaderTimeout = 150 * time.Millisecond
	srv, err := core.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	baseline := medianGoodput(t, srv.Addr(), 4, 500*time.Millisecond, 3)
	if baseline < 50 {
		t.Fatalf("implausible loopback baseline %.0f replies/s", baseline)
	}

	proxy, stopAttack := slowlorisHerd(t, srv.Addr(), 32)
	defer stopAttack()

	// Wait for the defense to engage: attackers connected and the
	// header sweeper firing.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if srv.Stats().HeaderTimeouts > 0 && proxy.Stats().Conns >= 32 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := srv.Stats(); st.HeaderTimeouts == 0 {
		t.Fatalf("header sweeper never engaged: %+v", st)
	}

	attacked := medianGoodput(t, srv.Addr(), 4, 500*time.Millisecond, 3)
	if attacked < baseline*0.8 {
		t.Fatalf("event-driven goodput collapsed under slowloris: %.0f replies/s attacked vs %.0f baseline",
			attacked, baseline)
	}
	// The herd keeps redialing; the sweeper must keep mowing.
	if ht := srv.Stats().HeaderTimeouts; ht < 32 {
		t.Logf("note: only %d header timeouts so far (herd still queueing)", ht)
	}
}

// floodTarget abstracts over the two servers for the flood test.
type floodTarget struct {
	name     string
	addr     string
	maxConns int64
	conns    func() int64
	shed     func() int64
	stop     func()
}

// TestConnectionFloodBoundedByMaxConns floods both servers past their
// MaxConns cap and checks the bound holds at every sample, excess
// clients get 503s, and admitted clients keep being served.
func TestConnectionFloodBoundedByMaxConns(t *testing.T) {
	targets := []func(t *testing.T) floodTarget{
		func(t *testing.T) floodTarget {
			cfg := core.DefaultConfig(robustStore())
			cfg.MaxConns = 32
			s, err := core.NewServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			return floodTarget{
				name:     "core",
				addr:     s.Addr(),
				maxConns: 32,
				conns:    func() int64 { return s.Stats().ConnsOpen },
				shed:     func() int64 { return s.Stats().Shed },
				stop:     s.Stop,
			}
		},
		func(t *testing.T) floodTarget {
			cfg := mtserver.DefaultConfig(robustStore())
			// With a synchronous handoff the acceptor blocks once every
			// thread is busy, so a cap above Threads is unreachable; the
			// useful setting sheds instead of queueing in the backlog.
			cfg.Threads = 8
			cfg.MaxConns = 8
			s, err := mtserver.NewServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			return floodTarget{
				name:     "mtserver",
				addr:     s.Addr(),
				maxConns: 8,
				conns:    func() int64 { return s.Stats().ConnsOpen },
				shed:     func() int64 { return s.Stats().Shed },
				stop:     s.Stop,
			}
		},
	}
	for _, mk := range targets {
		mk := mk
		tgt := mk(t)
		t.Run(tgt.name, func(t *testing.T) {
			defer tgt.stop()
			var saw200, saw503 atomic.Int64
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for i := 0; i < 120; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						c, err := net.DialTimeout("tcp", tgt.addr, time.Second)
						if err != nil {
							continue
						}
						c.SetDeadline(time.Now().Add(time.Second))
						c.Write(probeRequest)
						resp, err := http.ReadResponse(bufio.NewReader(c), nil)
						if err == nil {
							io.Copy(io.Discard, resp.Body)
							resp.Body.Close()
							switch resp.StatusCode {
							case 200:
								saw200.Add(1)
							case 503:
								saw503.Add(1)
							}
							if resp.StatusCode == 200 {
								// Hold the admitted slot briefly to keep
								// pressure on the cap.
								select {
								case <-stop:
									c.Close()
									return
								case <-time.After(100 * time.Millisecond):
								}
							}
						}
						c.Close()
					}
				}()
			}
			// Sample the cap while the flood runs.
			var maxOpen int64
			floodEnd := time.Now().Add(1200 * time.Millisecond)
			for time.Now().Before(floodEnd) {
				if open := tgt.conns(); open > maxOpen {
					maxOpen = open
				}
				time.Sleep(time.Millisecond)
			}
			close(stop)
			wg.Wait()

			if maxOpen > tgt.maxConns {
				t.Fatalf("ConnsOpen peaked at %d, above MaxConns %d", maxOpen, tgt.maxConns)
			}
			if tgt.shed() == 0 {
				t.Fatal("flood never tripped admission control")
			}
			if saw503.Load() == 0 {
				t.Fatal("no client observed a 503 shed response")
			}
			if saw200.Load() == 0 {
				t.Fatal("admitted clients starved during the flood")
			}
		})
	}
}

// TestDrainDeliversInFlightThroughCappedLink starts a large transfer
// over a bandwidth-capped client link, drains the server mid-transfer,
// and requires the full response to arrive before the close — on both
// architectures.
func TestDrainDeliversInFlightThroughCappedLink(t *testing.T) {
	type target struct {
		name  string
		addr  string
		drain func(time.Duration) bool
		stop  func()
	}
	mks := []func(t *testing.T) target{
		func(t *testing.T) target {
			s, err := core.NewServer(core.DefaultConfig(robustStore()))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			return target{"core", s.Addr(), s.Drain, s.Stop}
		},
		func(t *testing.T) target {
			s, err := mtserver.NewServer(mtserver.DefaultConfig(robustStore()))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			return target{"mtserver", s.Addr(), s.Drain, s.Stop}
		},
	}
	for _, mk := range mks {
		mk := mk
		tgt := mk(t)
		t.Run(tgt.name, func(t *testing.T) {
			defer tgt.stop()
			// 1 MiB body over a 2 MiB/s capped link: ~500 ms in flight.
			proxy, err := faultline.New(faultline.Config{
				Upstream: tgt.addr,
				Plan: func(int, *dist.RNG) faultline.Profile {
					return faultline.Profile{DownBytesPerSec: 2 << 20}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer proxy.Close()

			c, err := net.DialTimeout("tcp", proxy.Addr(), time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Write([]byte("GET /big HTTP/1.1\r\nHost: sut\r\n\r\n")); err != nil {
				t.Fatal(err)
			}

			type result struct {
				n    int64
				tail error
				err  error
			}
			done := make(chan result, 1)
			go func() {
				c.SetReadDeadline(time.Now().Add(30 * time.Second))
				r := bufio.NewReader(c)
				resp, err := http.ReadResponse(r, nil)
				if err != nil {
					done <- result{0, nil, err}
					return
				}
				n, err := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				_, tail := r.ReadByte()
				done <- result{n, tail, err}
			}()

			time.Sleep(100 * time.Millisecond) // transfer is now mid-flight
			if !tgt.drain(15 * time.Second) {
				t.Fatal("drain timed out with an in-flight transfer")
			}
			res := <-done
			if res.err != nil {
				t.Fatalf("in-flight response errored: %v", res.err)
			}
			if res.n != 1<<20 {
				t.Fatalf("in-flight response truncated: %d of %d bytes", res.n, 1<<20)
			}
			if res.tail != io.EOF {
				t.Fatalf("connection tail = %v, want EOF after the drain", res.tail)
			}
		})
	}
}

// rawGet issues one GET on a fresh connection and returns the status
// code, whether the server asked to close, and any transport error.
func rawGet(addr, path string, timeout time.Duration) (status int, closed bool, err error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return 0, false, err
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(timeout))
	req := "GET " + path + " HTTP/1.1\r\nHost: sut\r\nUser-Agent: probe/1.0\r\n\r\n"
	if _, err := c.Write([]byte(req)); err != nil {
		return 0, false, err
	}
	resp, err := http.ReadResponse(bufio.NewReader(c), nil)
	if err != nil {
		return 0, false, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Close, nil
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestHandlerPanicIsolated injects a panic into the handler of each
// server and requires the blast radius to be exactly one connection: the
// panicking request gets a best-effort 500 + close, the panic is
// counted, and the server keeps serving other clients.
func TestHandlerPanicIsolated(t *testing.T) {
	faults := func(path string) core.Fault {
		if path == "/panic" {
			return core.Fault{Panic: true}
		}
		return core.Fault{}
	}
	type target struct {
		name   string
		addr   string
		panics func() int64
		stop   func()
	}
	mks := []func(t *testing.T) target{
		func(t *testing.T) target {
			cfg := core.DefaultConfig(robustStore())
			cfg.HandlerFault = faults
			s, err := core.NewServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			return target{"core", s.Addr(), func() int64 { return s.Stats().HandlerPanics }, s.Stop}
		},
		func(t *testing.T) target {
			cfg := mtserver.DefaultConfig(robustStore())
			cfg.Threads = 4
			cfg.HandlerFault = faults
			s, err := mtserver.NewServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			return target{"mtserver", s.Addr(), func() int64 { return s.Stats().HandlerPanics }, s.Stop}
		},
	}
	for _, mk := range mks {
		tgt := mk(t)
		t.Run(tgt.name, func(t *testing.T) {
			defer tgt.stop()
			status, closed, err := rawGet(tgt.addr, "/panic", 5*time.Second)
			if err != nil {
				t.Fatalf("panicking request errored at transport level: %v", err)
			}
			if status != 500 || !closed {
				t.Fatalf("panicking request answered %d (close=%v), want 500 + close", status, closed)
			}
			if n := tgt.panics(); n != 1 {
				t.Fatalf("HandlerPanics = %d after one injected panic", n)
			}
			// The process and the serving loop must both have survived.
			status, _, err = rawGet(tgt.addr, "/hello", 5*time.Second)
			if err != nil || status != 200 {
				t.Fatalf("server wedged after isolated panic: status=%d err=%v", status, err)
			}
		})
	}
}

// TestWatchdogFlagsWedgedLoop hangs a handler on each server and checks
// the heartbeat watchdog flags the wedged loop promptly (the stall age
// proves it was caught within about one interval of wedging), names it,
// and records the recovery once the hang clears.
func TestWatchdogFlagsWedgedLoop(t *testing.T) {
	const interval = 25 * time.Millisecond
	type target struct {
		name    string
		stalled string // heartbeat name expected to stall
		addr    string
		alive   bool // whether /hello stays servable during the wedge
		stop    func()
	}
	mks := []func(t *testing.T, wd *overload.Watchdog, wedge <-chan struct{}) target{
		func(t *testing.T, wd *overload.Watchdog, wedge <-chan struct{}) target {
			cfg := core.DefaultConfig(robustStore())
			cfg.Watchdog = wd
			cfg.HandlerFault = func(path string) core.Fault {
				if path == "/wedge" {
					return core.Fault{Wedge: wedge}
				}
				return core.Fault{}
			}
			s, err := core.NewServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			// One reactor worker: wedging it wedges the whole data plane —
			// exactly the outage class the watchdog exists to surface.
			return target{"core", "core-worker-0", s.Addr(), false, s.Stop}
		},
		func(t *testing.T, wd *overload.Watchdog, wedge <-chan struct{}) target {
			cfg := mtserver.DefaultConfig(robustStore())
			cfg.Threads = 2
			cfg.Watchdog = wd
			cfg.HandlerFault = func(path string) core.Fault {
				if path == "/wedge" {
					return core.Fault{Wedge: wedge}
				}
				return core.Fault{}
			}
			s, err := mtserver.NewServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			// Two pool threads: one wedges, the other keeps serving.
			return target{"mtserver", "mt-worker-", s.Addr(), true, s.Stop}
		},
	}
	for _, mk := range mks {
		wd, err := overload.NewWatchdog(overload.WatchdogConfig{Interval: interval})
		if err != nil {
			t.Fatal(err)
		}
		wedge := make(chan struct{})
		tgt := mk(t, wd, wedge)
		t.Run(tgt.name, func(t *testing.T) {
			defer wd.Stop()
			defer tgt.stop()
			// Healthy traffic does not trip the watchdog.
			if status, _, err := rawGet(tgt.addr, "/hello", 5*time.Second); err != nil || status != 200 {
				t.Fatalf("healthy probe failed: status=%d err=%v", status, err)
			}
			time.Sleep(3 * interval)
			if st := wd.Stats(); st.Stalls != 0 {
				t.Fatalf("watchdog flagged %d stalls on a healthy server", st.Stalls)
			}

			// Wedge a handler. The request never completes, so issue it
			// from a goroutine and watch the watchdog instead.
			go rawGet(tgt.addr, "/wedge", 30*time.Second)
			waitUntil(t, 5*time.Second, func() bool { return wd.Stats().Stalls >= 1 }, "stall flag")
			stalled := wd.Stalled()
			if len(stalled) != 1 || !strings.HasPrefix(stalled[0].Name, tgt.stalled) {
				t.Fatalf("Stalled() = %+v, want one loop matching %q", stalled, tgt.stalled)
			}
			// Age >= interval proves detection waited for a full missed
			// heartbeat and no longer: the checker runs at interval/4, so a
			// freshly flagged stall cannot be much older than ~1.25x.
			if stalled[0].Age < interval {
				t.Fatalf("stall age %v below the interval", stalled[0].Age)
			}
			if tgt.alive {
				if status, _, err := rawGet(tgt.addr, "/hello", 5*time.Second); err != nil || status != 200 {
					t.Fatalf("surviving worker not serving during wedge: status=%d err=%v", status, err)
				}
			}

			// Clear the hang: the loop must recover.
			close(wedge)
			waitUntil(t, 5*time.Second, func() bool { return wd.Stats().Recovered >= 1 }, "recovery")
			if status, _, err := rawGet(tgt.addr, "/hello", 5*time.Second); err != nil || status != 200 {
				t.Fatalf("server not serving after recovery: status=%d err=%v", status, err)
			}
		})
	}
}

// oneShotSource emits identical single-request sessions; the open-loop
// arrival process turns each into one connection, so offered load is the
// session rate exactly.
type oneShotSource struct{}

func (oneShotSource) NextSession() surge.Session {
	return surge.Session{Requests: []surge.Request{{Object: surge.Object{ID: 0}}}}
}

// rampLoad offers a fixed open-loop arrival rate of single-request
// sessions — an overload ramp when the rate exceeds server capacity.
func rampLoad(t *testing.T, addr string, seed uint64) loadgen.Result {
	t.Helper()
	res, err := loadgen.Run(loadgen.Options{
		Addr:        addr,
		SessionRate: 640,
		Warmup:      time.Second,
		Duration:    2500 * time.Millisecond,
		Timeout:     2 * time.Second,
		Seed:        seed,
		SourceFactory: func(int, *dist.RNG) surge.SessionSource {
			return oneShotSource{}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestOverloadRampAdaptiveVsStatic drives a 4x overload ramp (640
// sessions/s against a 4-thread pool whose 25 ms/request handler caps it
// at ~160/s) at two configurations of the same server. The static one
// (no controller) hides the excess in queues, so client p95 blows far
// past the latency target; the adaptive controller sheds the excess with
// Retry-After and holds client p95 within 2x its target.
func TestOverloadRampAdaptiveVsStatic(t *testing.T) {
	const target = 150 * time.Millisecond
	store := core.MapStore{"/obj/0": []byte("pong")}
	newPool := func(ac *overload.Controller) *mtserver.Server {
		cfg := mtserver.DefaultConfig(store)
		cfg.Threads = 4
		cfg.Admission = ac
		cfg.HandlerFault = func(string) core.Fault {
			return core.Fault{Delay: 25 * time.Millisecond}
		}
		s, err := mtserver.NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		return s
	}

	// Static-only configuration: the ramp must actually hurt, or the
	// adaptive half of the comparison proves nothing.
	static := newPool(nil)
	staticRes := rampLoad(t, static.Addr(), 42)
	static.Stop()
	t.Logf("static:   p95=%.0fms replies=%d sheds=%d timeouts=%d",
		staticRes.P95ResponseSec*1000, staticRes.Replies, staticRes.Sheds, staticRes.TimeoutErrors)
	if staticRes.Replies == 0 {
		t.Fatalf("static pool served nothing: %+v", staticRes)
	}
	if staticRes.Sheds != 0 {
		t.Fatalf("static pool shed %d connections with no controller configured", staticRes.Sheds)
	}
	if staticRes.P95ResponseSec <= (2*target).Seconds() && staticRes.TimeoutErrors == 0 {
		t.Fatalf("overload ramp did not hurt the static pool (p95=%.0fms, no timeouts); nothing to discriminate",
			staticRes.P95ResponseSec*1000)
	}

	ac, err := overload.NewController(overload.Config{
		TargetP95:      target,
		InitialRate:    200,
		MinRate:        20,
		Increase:       10,
		DecreaseFactor: 0.5,
		AdaptEvery:     100 * time.Millisecond,
		RetryAfter:     time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	adaptive := newPool(ac)
	adaptiveRes := rampLoad(t, adaptive.Addr(), 43)
	adaptive.Stop()
	st := ac.Stats()
	t.Logf("adaptive: p95=%.0fms replies=%d sheds=%d retries=%d rate=%.0f/s steps=%d down/%d up",
		adaptiveRes.P95ResponseSec*1000, adaptiveRes.Replies, adaptiveRes.Sheds,
		adaptiveRes.Retries, st.Rate, st.Decreases, st.Increases)

	if adaptiveRes.Replies == 0 {
		t.Fatalf("adaptive pool served nothing: %+v", adaptiveRes)
	}
	if adaptiveRes.Sheds == 0 || adaptiveRes.Retries == 0 {
		t.Fatalf("controller never shed under 4x overload (sheds=%d retries=%d)",
			adaptiveRes.Sheds, adaptiveRes.Retries)
	}
	if st.Decreases == 0 {
		t.Fatalf("controller never cut its rate under overload: %+v", st)
	}
	if got := adaptiveRes.P95ResponseSec; got > (2 * target).Seconds() {
		t.Fatalf("adaptive controller missed its target: client p95 = %.0f ms, want <= %.0f ms",
			got*1000, (2*target).Seconds()*1000)
	}
}

// TestDrainFlushesSendfileSegments queues a large file-range response
// through the zero-copy sendfile path over a bandwidth-capped link,
// drains the server mid-transfer, and requires the partial file range to
// flush to completion before the close — on both architectures. This is
// the drain guarantee of TestDrainDeliversInFlightThroughCappedLink
// extended to responses whose unsent remainder lives in the kernel, not
// in a user-space buffer.
func TestDrainFlushesSendfileSegments(t *testing.T) {
	const fileSize = 4 << 20
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "obj"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "obj", "0"), make([]byte, fileSize), 0o644); err != nil {
		t.Fatal(err)
	}

	type target struct {
		name     string
		addr     string
		sendfile func() int64
		drain    func(time.Duration) bool
		stop     func()
	}
	mks := []func(t *testing.T) target{
		func(t *testing.T) target {
			// cacheBytes=0 disables the content cache: every entry is
			// fd-only, so the body MUST travel as a resumable sendfile
			// segment — the state this test exists to drain.
			root, err := docroot.Open(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.DefaultConfig(nil)
			cfg.Store = nil
			cfg.Docroot = root
			s, err := core.NewServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			return target{"core", s.Addr(),
				func() int64 { return s.Stats().SendfileBytes }, s.Drain, s.Stop}
		},
		func(t *testing.T) target {
			root, err := docroot.Open(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			cfg := mtserver.DefaultConfig(nil)
			cfg.Store = nil
			cfg.Docroot = root
			s, err := mtserver.NewServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			return target{"mtserver", s.Addr(),
				func() int64 { return s.Stats().SendfileBytes }, s.Drain, s.Stop}
		},
	}
	for _, mk := range mks {
		tgt := mk(t)
		t.Run(tgt.name, func(t *testing.T) {
			defer tgt.stop()
			// 4 MiB body over a 4 MiB/s capped link: ~1 s in flight.
			proxy, err := faultline.New(faultline.Config{
				Upstream: tgt.addr,
				Plan: func(int, *dist.RNG) faultline.Profile {
					return faultline.Profile{DownBytesPerSec: 4 << 20}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer proxy.Close()

			c, err := net.DialTimeout("tcp", proxy.Addr(), time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Write([]byte("GET /obj/0 HTTP/1.1\r\nHost: sut\r\n\r\n")); err != nil {
				t.Fatal(err)
			}

			type result struct {
				n    int64
				tail error
				err  error
			}
			done := make(chan result, 1)
			go func() {
				c.SetReadDeadline(time.Now().Add(30 * time.Second))
				r := bufio.NewReader(c)
				resp, err := http.ReadResponse(r, nil)
				if err != nil {
					done <- result{0, nil, err}
					return
				}
				n, err := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				_, tail := r.ReadByte()
				done <- result{n, tail, err}
			}()

			// Let the transfer get mid-file, then drain: the queued
			// sendfile segment must flush its remaining range.
			time.Sleep(150 * time.Millisecond)
			if !tgt.drain(15 * time.Second) {
				t.Fatal("drain timed out with an in-flight sendfile segment")
			}
			res := <-done
			if res.err != nil {
				t.Fatalf("in-flight sendfile response errored: %v", res.err)
			}
			if res.n != fileSize {
				t.Fatalf("in-flight sendfile response truncated: %d of %d bytes", res.n, fileSize)
			}
			if res.tail != io.EOF {
				t.Fatalf("connection tail = %v, want EOF after the drain", res.tail)
			}
			if sf := tgt.sendfile(); sf != fileSize {
				t.Fatalf("SendfileBytes = %d, want %d (body must travel the zero-copy path)", sf, fileSize)
			}
		})
	}
}

// TestTraceRecordsPanicAndDrain extends the panic-isolation and drain
// stories onto the observability plane: after an injected handler panic
// the trace ring must hold the panic and the victim connection's close;
// after a graceful drain the lifecycle must balance exactly — every
// traced accept has a close, and the derived open-connections gauge is
// back at zero.
func TestTraceRecordsPanicAndDrain(t *testing.T) {
	faults := func(path string) core.Fault {
		if path == "/panic" {
			return core.Fault{Panic: true}
		}
		return core.Fault{}
	}
	type target struct {
		name  string
		addr  string
		drain func(time.Duration) bool
		stop  func()
	}
	mks := []func(t *testing.T, pl *obs.Plane) target{
		func(t *testing.T, pl *obs.Plane) target {
			cfg := core.DefaultConfig(robustStore())
			cfg.HandlerFault = faults
			cfg.Obs = pl
			s, err := core.NewServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			return target{"core", s.Addr(), s.Drain, s.Stop}
		},
		func(t *testing.T, pl *obs.Plane) target {
			cfg := mtserver.DefaultConfig(robustStore())
			cfg.Threads = 4
			cfg.HandlerFault = faults
			cfg.Obs = pl
			s, err := mtserver.NewServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			return target{"mtserver", s.Addr(), s.Drain, s.Stop}
		},
	}
	for _, mk := range mks {
		pl := obs.NewPlane(256)
		tgt := mk(t, pl)
		t.Run(tgt.name, func(t *testing.T) {
			defer tgt.stop()
			dumpRingOnFailure(t, "panic-drain-"+tgt.name, pl)
			// A healthy request first, so the ring holds a full lifecycle.
			if status, _, err := rawGet(tgt.addr, "/hello", 5*time.Second); err != nil || status != 200 {
				t.Fatalf("healthy request: status=%d err=%v", status, err)
			}
			if status, _, err := rawGet(tgt.addr, "/panic", 5*time.Second); err != nil || status != 500 {
				t.Fatalf("panicking request: status=%d err=%v", status, err)
			}
			if n := pl.Count(obs.Panic); n != 1 {
				t.Fatalf("traced panics = %d after one injected panic", n)
			}
			panics := obs.Filter{Kind: obs.Panic, HasKind: true}.Apply(pl.Ring().Events())
			if len(panics) != 1 || panics[0].Conn == 0 {
				t.Fatalf("ring panic events = %+v, want one attributed to a connection", panics)
			}
			// The panicking connection's teardown reaches the ring too
			// (its Close may land just after rawGet sees the FIN).
			victim := panics[0].Conn
			waitUntil(t, 2*time.Second, func() bool {
				f := obs.Filter{Conn: victim, HasConn: true, Kind: obs.Close, HasKind: true}
				return len(f.Apply(pl.Ring().Events())) == 1
			}, "panicking connection's close event")

			if !tgt.drain(5 * time.Second) {
				t.Fatal("drain timed out")
			}
			if open := pl.OpenConns(); open != 0 {
				t.Fatalf("traced open-connections gauge = %d after drain, want 0", open)
			}
			if a, c := pl.Count(obs.Accept), pl.Count(obs.Close); a != c || a < 2 {
				t.Fatalf("lifecycle unbalanced after drain: %d accepts, %d closes", a, c)
			}
			closes := obs.Filter{Kind: obs.Close, HasKind: true}.Apply(pl.Ring().Events())
			if int64(len(closes)) != pl.Count(obs.Close) {
				t.Fatalf("ring holds %d close events, counters say %d", len(closes), pl.Count(obs.Close))
			}
		})
	}
}

// TestAmbiguousFramingRefusedLive sends each server, and the proxy in
// front of one, the two request shapes a desync attack is built from. In
// both the bytes after the head spell a complete second request: a
// parser that ignores the Transfer-Encoding (or picks the other
// Content-Length) serves it as a pipelined request — and the proxy used
// to strip the field and forward the rest. The only acceptable outcome
// is one 400 that closes the connection, with nothing served or
// forwarded; a repeated Content-Length that agrees with itself stays
// legal.
func TestAmbiguousFramingRefusedLive(t *testing.T) {
	const smuggled = "GET /hello HTTP/1.1\r\nHost: sut\r\n\r\n"
	attacks := map[string]string{
		"transfer-encoding": "GET /hello HTTP/1.1\r\nHost: sut\r\nTransfer-Encoding: chunked\r\n\r\n" + smuggled,
		"content-lengths":   "GET /hello HTTP/1.1\r\nHost: sut\r\nContent-Length: 0\r\nContent-Length: 39\r\n\r\n" + smuggled,
	}
	const legal = "GET /hello HTTP/1.1\r\nHost: sut\r\nContent-Length: 0\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"

	type target struct {
		addr    string
		served  func() int64 // replies the origin server has produced
		refused func() int64
	}
	startCore := func(t *testing.T) (*core.Server, target) {
		cfg := core.DefaultConfig(robustStore())
		cfg.Shards = 1
		srv, err := core.NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Stop)
		return srv, target{srv.Addr(),
			func() int64 { return srv.Stats().Replies },
			func() int64 { return srv.Stats().BadRequest }}
	}
	targets := map[string]func(t *testing.T) target{
		"core": func(t *testing.T) target { _, tg := startCore(t); return tg },
		"mtserver": func(t *testing.T) target {
			cfg := mtserver.DefaultConfig(robustStore())
			cfg.Threads = 2
			srv, err := mtserver.NewServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(srv.Stop)
			return target{srv.Addr(),
				func() int64 { return srv.Stats().Replies },
				func() int64 { return srv.Stats().BadRequest }}
		},
		"nioproxy": func(t *testing.T) target {
			backend, _ := startCore(t)
			p := startProxyTier(t, 1, []proxy.BackendConfig{{Addr: backend.Addr(), Name: "b0"}}, nil)
			return target{p.Addr(),
				func() int64 { return backend.Stats().Replies }, // what got through to the origin
				func() int64 { return p.Stats().BadRequest }}
		},
	}
	// exchange writes wire and returns every response up to the end of
	// the connection (a FIN — or a reset, when the server closed with the
	// smuggled bytes still unread).
	exchange := func(t *testing.T, addr, wire string) []*http.Response {
		t.Helper()
		c, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.WriteString(c, wire); err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(c)
		var out []*http.Response
		for {
			resp, err := http.ReadResponse(br, nil)
			if err != nil {
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					t.Fatalf("after %d responses the connection is still open: %v", len(out), err)
				}
				return out
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			out = append(out, resp)
		}
	}
	for name, start := range targets {
		t.Run(name, func(t *testing.T) {
			tg := start(t)
			for attack, wire := range attacks {
				resps := exchange(t, tg.addr, wire)
				if len(resps) != 1 || resps[0].StatusCode != 400 || !resps[0].Close {
					t.Fatalf("%s: %d responses, first %+v; want exactly one 400 with Connection: close", attack, len(resps), resps)
				}
			}
			if got := tg.served(); got != 0 {
				t.Errorf("the origin served %d replies out of refused requests, want 0", got)
			}
			if got := tg.refused(); got != int64(len(attacks)) {
				t.Errorf("bad-request counter = %d, want %d", got, len(attacks))
			}
			if resps := exchange(t, tg.addr, legal); len(resps) != 1 || resps[0].StatusCode != 200 {
				t.Errorf("a repeated, agreeing Content-Length: %d responses, first %+v; want one 200", len(resps), resps)
			}
		})
	}
}
