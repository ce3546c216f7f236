//go:build linux

package proxy

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func startBackend(t *testing.T, store core.Store) *core.Server {
	t.Helper()
	s, err := core.NewServer(core.DefaultConfig(store))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s
}

func startProxy(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s
}

func testStore() core.MapStore {
	return core.MapStore{
		"/hello": []byte("hello world"),
		"/big":   make([]byte, 300<<10),
	}
}

// noProbes returns a tier config with active probing disabled, so tests
// of the passive path are deterministic.
func noProbes(backends ...BackendConfig) Config {
	cfg := DefaultConfig(backends)
	cfg.ProbeEvery = 0
	return cfg
}

func httpGet(t *testing.T, addr, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestRelayBasic(t *testing.T) {
	b := startBackend(t, testStore())
	p := startProxy(t, noProbes(BackendConfig{Addr: b.Addr()}))

	resp, body := httpGet(t, p.Addr(), "/hello")
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if string(body) != "hello world" {
		t.Fatalf("body = %q", body)
	}
	// Relayed responses must NOT carry the proxy's Via token — that is
	// the shed-attribution contract.
	if v := resp.Header.Get("Via"); v != "" {
		t.Fatalf("relayed response carries Via %q", v)
	}
	st := p.Stats()
	if st.Replies != 1 || st.UpstreamDials != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BadGateway != 0 || st.UpstreamErrors != 0 {
		t.Fatalf("unexpected errors: %+v", st)
	}
}

func TestKeepAliveAndUpstreamReuse(t *testing.T) {
	b := startBackend(t, testStore())
	p := startProxy(t, noProbes(BackendConfig{Addr: b.Addr()}))

	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	br := bufio.NewReader(c)
	for i := 0; i < 5; i++ {
		if _, err := fmt.Fprintf(c, "GET /hello HTTP/1.1\r\nHost: sut\r\n\r\n"); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || string(body) != "hello world" {
			t.Fatalf("request %d: status %d body %q", i, resp.StatusCode, body)
		}
	}
	st := p.Stats()
	if st.Replies != 5 {
		t.Fatalf("replies = %d, want 5", st.Replies)
	}
	if st.UpstreamReuses == 0 {
		t.Fatalf("no upstream reuse across %d keep-alive requests: %+v", 5, st)
	}
	if st.ConnsOpen != 1 {
		t.Fatalf("conns_open = %d, want the one live client", st.ConnsOpen)
	}
}

func TestBalancesAcrossBackends(t *testing.T) {
	b1 := startBackend(t, testStore())
	b2 := startBackend(t, testStore())
	cfg := noProbes(
		BackendConfig{Addr: b1.Addr(), Name: "nio-a"},
		BackendConfig{Addr: b2.Addr(), Name: "nio-b"})
	cfg.Balance = RoundRobin
	p := startProxy(t, cfg)

	for i := 0; i < 10; i++ {
		resp, _ := httpGet(t, p.Addr(), "/hello")
		if resp.StatusCode != 200 {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
	var got []int64
	for _, b := range p.Backends() {
		got = append(got, b.Stats().Relayed)
	}
	if got[0] != 5 || got[1] != 5 {
		t.Fatalf("round-robin split = %v, want [5 5]", got)
	}
}

func TestHashAffinity(t *testing.T) {
	b1 := startBackend(t, testStore())
	b2 := startBackend(t, testStore())
	cfg := noProbes(BackendConfig{Addr: b1.Addr()}, BackendConfig{Addr: b2.Addr()})
	cfg.Balance = HashPath
	p := startProxy(t, cfg)

	for i := 0; i < 6; i++ {
		if resp, _ := httpGet(t, p.Addr(), "/hello"); resp.StatusCode != 200 {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	// Path affinity: every /hello request landed on the same backend.
	s0, s1 := p.Backends()[0].Stats(), p.Backends()[1].Stats()
	if !(s0.Relayed == 6 && s1.Relayed == 0) && !(s0.Relayed == 0 && s1.Relayed == 6) {
		t.Fatalf("hash split = [%d %d], want all on one backend", s0.Relayed, s1.Relayed)
	}
}

// fakeBackend is a scripted upstream: every request gets the canned
// response bytes, verbatim.
func fakeBackend(t *testing.T, response string) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				close(done)
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				br := bufio.NewReader(c)
				for {
					// Consume one request head.
					sawAny := false
					for {
						line, err := br.ReadString('\n')
						if err != nil {
							return
						}
						sawAny = true
						if line == "\r\n" || line == "\n" {
							break
						}
					}
					if !sawAny {
						return
					}
					if _, err := io.WriteString(c, response); err != nil {
						return
					}
					if strings.Contains(response, "Connection: close") {
						return
					}
				}
			}(c)
		}
	}()
	return ln.Addr().String(), func() { ln.Close(); <-done }
}

// TestBackendShedPassesThrough pins the core of the overload contract:
// a backend's 503 — status, Retry-After, body — reaches the client
// byte-untouched, with no Via header, while the proxy counts it as a
// relayed shed rather than its own.
func TestBackendShedPassesThrough(t *testing.T) {
	addr, stop := fakeBackend(t,
		"HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain\r\nContent-Length: 4\r\nRetry-After: 7\r\nConnection: close\r\n\r\nbusy")
	defer stop()
	p := startProxy(t, noProbes(BackendConfig{Addr: addr}))

	resp, body := httpGet(t, p.Addr(), "/x")
	if resp.StatusCode != 503 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if v := resp.Header.Get("Retry-After"); v != "7" {
		t.Fatalf("Retry-After = %q, want backend's own %q", v, "7")
	}
	if v := resp.Header.Get("Via"); v != "" {
		t.Fatalf("backend shed was stamped with Via %q — attribution broken", v)
	}
	if string(body) != "busy" {
		t.Fatalf("body = %q", body)
	}
	st := p.Stats()
	if st.Relayed503 != 1 || st.Shed != 0 {
		t.Fatalf("relayed_503 = %d, shed = %d; backend shed misattributed (%+v)",
			st.Relayed503, st.Shed, st)
	}
}

// TestProxyShedCarriesVia pins the other half: the tier's own refusal
// is Via-stamped so clients can tell the layers apart.
func TestProxyShedCarriesVia(t *testing.T) {
	b := startBackend(t, testStore())
	cfg := noProbes(BackendConfig{Addr: b.Addr()})
	cfg.MaxConns = 1
	p := startProxy(t, cfg)

	// Occupy the only slot with an idle connection.
	hold, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Close()
	// Give the proxy loop a beat to accept it.
	deadline := time.Now().Add(2 * time.Second)
	for p.Stats().ConnsOpen == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fmt.Fprintf(c, "GET /hello HTTP/1.1\r\nHost: sut\r\n\r\n")
	resp, err := http.ReadResponse(bufio.NewReader(c), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("status = %d, want tier shed", resp.StatusCode)
	}
	if v := resp.Header.Get("Via"); v != ViaToken {
		t.Fatalf("proxy shed Via = %q, want %q", v, ViaToken)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("proxy shed missing Retry-After")
	}
	if st := p.Stats(); st.Shed != 1 {
		t.Fatalf("shed = %d, want 1 (%+v)", st.Shed, st)
	}
}

// TestDeadBackend502 drives a single dead upstream: the relay budget is
// spent on connect failures and the client gets a Via-stamped 502; the
// failures eject the backend passively, so the next request is refused
// instantly with no_backend.
func TestDeadBackend502(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close() // nothing listens here anymore

	cfg := noProbes(BackendConfig{Addr: deadAddr})
	cfg.FailAfter = 2
	cfg.RelayAttempts = 3
	p := startProxy(t, cfg)

	resp, _ := httpGet(t, p.Addr(), "/hello")
	if resp.StatusCode != 502 {
		t.Fatalf("status = %d, want 502", resp.StatusCode)
	}
	if v := resp.Header.Get("Via"); v != ViaToken {
		t.Fatalf("502 Via = %q", v)
	}
	st := p.Stats()
	if st.BadGateway != 1 || st.UpstreamErrors == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if p.Backends()[0].Healthy() {
		t.Fatal("backend survived consecutive connect failures")
	}
	if st.Ejections != 1 {
		t.Fatalf("ejections = %d, want 1", st.Ejections)
	}

	// Ejected and nothing else to try: immediate no-backend 503.
	resp2, _ := httpGet(t, p.Addr(), "/hello")
	if resp2.StatusCode != 503 || resp2.Header.Get("Via") != ViaToken {
		t.Fatalf("post-ejection: status %d Via %q", resp2.StatusCode, resp2.Header.Get("Via"))
	}
	if st := p.Stats(); st.NoBackend != 1 {
		t.Fatalf("no_backend = %d (%+v)", st.NoBackend, st)
	}
}

// TestFailoverToSurvivor: one live and one dead backend under round-
// robin. Every request must succeed — relays that land on the dead
// backend retry onto the survivor — and the dead backend must end up
// ejected with zero client-visible errors.
func TestFailoverToSurvivor(t *testing.T) {
	live := startBackend(t, testStore())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	cfg := noProbes(
		BackendConfig{Addr: live.Addr(), Name: "live"},
		BackendConfig{Addr: deadAddr, Name: "dead"})
	cfg.Balance = RoundRobin
	cfg.FailAfter = 1
	p := startProxy(t, cfg)

	for i := 0; i < 8; i++ {
		resp, body := httpGet(t, p.Addr(), "/hello")
		if resp.StatusCode != 200 || string(body) != "hello world" {
			t.Fatalf("request %d: status %d body %q", i, resp.StatusCode, body)
		}
	}
	st := p.Stats()
	if st.BadGateway != 0 {
		t.Fatalf("client-visible 502s during failover: %+v", st)
	}
	if p.Backends()[1].Healthy() {
		t.Fatal("dead backend still marked healthy")
	}
	if s := p.Backends()[0].Stats(); s.Relayed != 8 {
		t.Fatalf("survivor relayed %d, want 8", s.Relayed)
	}
}

// TestProbeEjectAndReadmit exercises the active health-check loop end
// to end: stop a backend, watch the prober eject it; restart it on the
// same port, watch the prober re-admit it.
func TestProbeEjectAndReadmit(t *testing.T) {
	b, err := core.NewServer(core.DefaultConfig(testStore()))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	port := b.Port()

	health := make(chan bool, 16)
	cfg := DefaultConfig([]BackendConfig{{Addr: b.Addr(), Name: "flapper"}})
	cfg.ProbeEvery = 20 * time.Millisecond
	cfg.ProbeTimeout = 200 * time.Millisecond
	cfg.FailAfter = 2
	cfg.ReviveAfter = 2
	cfg.OnHealthChange = func(name string, healthy bool) { health <- healthy }
	p := startProxy(t, cfg)

	if resp, _ := httpGet(t, p.Addr(), "/hello"); resp.StatusCode != 200 {
		t.Fatalf("warmup status %d", resp.StatusCode)
	}

	b.Stop()
	select {
	case h := <-health:
		if h {
			t.Fatal("first health transition was a re-admission")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("prober never ejected the stopped backend")
	}

	// Resurrect on the same port; the prober must notice.
	cfg2 := core.DefaultConfig(testStore())
	cfg2.Port = port
	b2, err := core.NewServer(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if err := b2.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b2.Stop)

	select {
	case h := <-health:
		if !h {
			t.Fatal("second health transition was another ejection")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("prober never re-admitted the restarted backend")
	}
	if resp, _ := httpGet(t, p.Addr(), "/hello"); resp.StatusCode != 200 {
		t.Fatalf("post-revival status %d", resp.StatusCode)
	}
	st := p.Stats()
	if st.Ejections < 1 || st.Readmissions < 1 {
		t.Fatalf("ejections=%d readmissions=%d", st.Ejections, st.Readmissions)
	}
}

// TestProbelessCooldownReadmission: with probing disabled, a passive
// ejection must not be permanent. After ReadmitAfter the backend
// re-enters rotation on probation, and once it is actually back the
// next request flows again — a transient failure streak cannot wedge
// the tier for good.
func TestProbelessCooldownReadmission(t *testing.T) {
	b, err := core.NewServer(core.DefaultConfig(testStore()))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	port := b.Port()

	health := make(chan bool, 16)
	cfg := noProbes(BackendConfig{Addr: b.Addr(), Name: "solo"})
	cfg.FailAfter = 2
	cfg.RelayAttempts = 2
	cfg.ReadmitAfter = 150 * time.Millisecond
	cfg.OnHealthChange = func(name string, healthy bool) { health <- healthy }
	p := startProxy(t, cfg)

	if resp, _ := httpGet(t, p.Addr(), "/hello"); resp.StatusCode != 200 {
		t.Fatalf("warmup status %d", resp.StatusCode)
	}

	// Kill the backend; the next request burns its relay budget on
	// connect failures (502) and the streak ejects the backend.
	b.Stop()
	if resp, _ := httpGet(t, p.Addr(), "/hello"); resp.StatusCode != 502 {
		t.Fatalf("dead-backend status %d, want 502", resp.StatusCode)
	}
	select {
	case h := <-health:
		if h {
			t.Fatal("first health transition was a re-admission")
		}
	default:
		t.Fatal("passive failures did not eject the backend")
	}

	// Inside the cooldown a fresh request is refused instantly.
	if resp, _ := httpGet(t, p.Addr(), "/hello"); resp.StatusCode != 503 {
		t.Fatalf("in-cooldown status %d, want 503", resp.StatusCode)
	}

	// Resurrect on the same port and wait out the cooldown: the next
	// request re-admits the backend on probation and succeeds.
	cfg2 := core.DefaultConfig(testStore())
	cfg2.Port = port
	b2, err := core.NewServer(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if err := b2.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b2.Stop)
	time.Sleep(cfg.ReadmitAfter + 50*time.Millisecond)

	resp, body := httpGet(t, p.Addr(), "/hello")
	if resp.StatusCode != 200 || string(body) != "hello world" {
		t.Fatalf("post-cooldown status %d body %q", resp.StatusCode, body)
	}
	select {
	case h := <-health:
		if !h {
			t.Fatal("second health transition was another ejection")
		}
	default:
		t.Fatal("cooldown re-admission never fired OnHealthChange")
	}
	st := p.Stats()
	if st.Ejections != 1 || st.Readmissions != 1 {
		t.Fatalf("ejections=%d readmissions=%d, want 1/1", st.Ejections, st.Readmissions)
	}
	if bs := p.Backends()[0].Stats(); bs.Readmissions != 1 {
		t.Fatalf("backend readmissions = %d, want 1", bs.Readmissions)
	}
}

func TestHealthStateMachine(t *testing.T) {
	b := &Backend{}
	b.healthy.Store(true)

	if b.noteFailure(3) || b.noteFailure(3) {
		t.Fatal("ejected before the streak completed")
	}
	if !b.noteFailure(3) {
		t.Fatal("third consecutive failure did not eject")
	}
	if b.Healthy() {
		t.Fatal("still healthy after ejection")
	}
	if b.noteFailure(3) {
		t.Fatal("re-ejected while already out")
	}

	// Passive success clears streaks but must never re-admit.
	if b.noteSuccess(false, 2) {
		t.Fatal("passive success re-admitted an ejected backend")
	}
	if b.noteSuccess(true, 2) {
		t.Fatal("re-admitted after one probe success, want two")
	}
	// An interleaved failure resets the revival streak.
	b.noteFailure(3)
	if b.noteSuccess(true, 2) {
		t.Fatal("revival streak survived an interleaved failure")
	}
	if !b.noteSuccess(true, 2) {
		t.Fatal("two consecutive probe successes did not re-admit")
	}
	if !b.Healthy() {
		t.Fatal("not healthy after re-admission")
	}
	if b.Stats().Ejections != 1 || b.Stats().Readmissions != 1 {
		t.Fatalf("transitions: %+v", b.Stats())
	}
}

func TestProbeOnce(t *testing.T) {
	b := startBackend(t, testStore())
	if !probeOnce(b.Addr(), "/hello", time.Second) {
		t.Fatal("probe failed against a live backend")
	}
	// A 404 path still proves liveness.
	if !probeOnce(b.Addr(), "/definitely-missing", time.Second) {
		t.Fatal("probe treated 404 as dead")
	}
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	dead := ln.Addr().String()
	ln.Close()
	if probeOnce(dead, "/", 200*time.Millisecond) {
		t.Fatal("probe succeeded against a closed port")
	}
}

func TestDrain(t *testing.T) {
	b := startBackend(t, testStore())
	p := startProxy(t, noProbes(BackendConfig{Addr: b.Addr()}))
	if resp, _ := httpGet(t, p.Addr(), "/hello"); resp.StatusCode != 200 {
		t.Fatal("warmup failed")
	}
	if !p.Drain(2 * time.Second) {
		t.Fatal("drain did not complete")
	}
	if _, err := net.DialTimeout("tcp", p.Addr(), 200*time.Millisecond); err == nil {
		t.Fatal("listener still accepting after drain")
	}
}

// A tier whose later member fails to bind stops the members it already
// built without ever starting them: Stop then has to return everything
// NewServer opened (listener, epoll instance, wakeup pipe). Counted over
// many rounds, so that a descriptor some earlier test's client is still
// closing in the background cannot pass for a leak or hide one.
func TestStopBeforeStartReturnsEveryDescriptor(t *testing.T) {
	openFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(ents)
	}
	const rounds = 32
	base := openFDs()
	for i := 0; i < rounds; i++ {
		s, err := NewServer(noProbes(BackendConfig{Addr: "127.0.0.1:1"}))
		if err != nil {
			t.Fatal(err)
		}
		s.Stop()
		if _, err := net.DialTimeout("tcp", s.Addr(), 200*time.Millisecond); err == nil {
			t.Fatal("listener still bound after Stop")
		}
	}
	if grown := openFDs() - base; grown >= rounds {
		t.Fatalf("%d more descriptors open after %d NewServer+Stop rounds: at least one leaks per round", grown, rounds)
	}
}

func TestValidate(t *testing.T) {
	if _, err := NewServer(Config{}); err == nil {
		t.Fatal("empty config validated")
	}
	cfg := DefaultConfig([]BackendConfig{{Addr: "127.0.0.1:1"}})
	cfg.FailAfter = 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("zero FailAfter validated")
	}
	cfg = DefaultConfig(nil)
	if err := cfg.Validate(); err == nil {
		t.Fatal("no backends validated")
	}
}
