//go:build linux

package core

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/surge"
)

func startServer(t *testing.T, cfg Config) *Server {
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

func testStore() MapStore {
	return MapStore{
		"/hello": []byte("hello world"),
		"/big":   make([]byte, 300<<10),
	}
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

func TestServeBasicGet(t *testing.T) {
	s := startServer(t, DefaultConfig(testStore()))
	resp, body := httpGet(t, s.Addr(), "/hello")
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if string(body) != "hello world" {
		t.Fatalf("body = %q", body)
	}
	if resp.Header.Get("Server") == "" || resp.Header.Get("Date") == "" {
		t.Fatalf("missing standard headers: %+v", resp.Header)
	}
	st := s.Stats()
	if st.Replies < 1 || st.Accepted < 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestServe404(t *testing.T) {
	s := startServer(t, DefaultConfig(testStore()))
	resp, _ := httpGet(t, s.Addr(), "/missing")
	if resp.StatusCode != 404 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if s.Stats().NotFound != 1 {
		t.Fatalf("stats = %+v", s.Stats())
	}
}

func TestLargeResponse(t *testing.T) {
	s := startServer(t, DefaultConfig(testStore()))
	resp, body := httpGet(t, s.Addr(), "/big")
	if resp.StatusCode != 200 || len(body) != 300<<10 {
		t.Fatalf("status=%d len=%d", resp.StatusCode, len(body))
	}
}

func TestKeepAliveSequentialRequests(t *testing.T) {
	s := startServer(t, DefaultConfig(testStore()))
	c, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := bufio.NewReader(c)
	for i := 0; i < 5; i++ {
		if _, err := fmt.Fprintf(c, "GET /hello HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(r, nil)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if string(b) != "hello world" {
			t.Fatalf("request %d body %q", i, b)
		}
	}
	if acc := s.Stats().Accepted; acc != 1 {
		t.Fatalf("accepted = %d, want 1 (keep-alive reuse)", acc)
	}
}

func TestPipelinedRequests(t *testing.T) {
	s := startServer(t, DefaultConfig(testStore()))
	c, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Three requests in one write.
	wire := strings.Repeat("GET /hello HTTP/1.1\r\nHost: x\r\n\r\n", 3)
	if _, err := c.Write([]byte(wire)); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(c)
	for i := 0; i < 3; i++ {
		resp, err := http.ReadResponse(r, nil)
		if err != nil {
			t.Fatalf("pipelined response %d: %v", i, err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if string(b) != "hello world" {
			t.Fatalf("pipelined response %d body %q", i, b)
		}
	}
}

func TestConnectionCloseHonored(t *testing.T) {
	s := startServer(t, DefaultConfig(testStore()))
	c, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fmt.Fprintf(c, "GET /hello HTTP/1.1\r\nConnection: close\r\n\r\n")
	data, err := io.ReadAll(c) // server must close after the response
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "hello world") {
		t.Fatalf("response: %q", data)
	}
}

func TestBadRequestGets400(t *testing.T) {
	s := startServer(t, DefaultConfig(testStore()))
	c, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fmt.Fprintf(c, "NONSENSE\r\n\r\n")
	data, _ := io.ReadAll(c)
	if !strings.Contains(string(data), "400 Bad Request") {
		t.Fatalf("response: %q", data)
	}
	if s.Stats().BadRequest != 1 {
		t.Fatalf("stats = %+v", s.Stats())
	}
}

func TestUnsupportedMethodGets501(t *testing.T) {
	s := startServer(t, DefaultConfig(testStore()))
	c, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fmt.Fprintf(c, "DELETE /hello HTTP/1.1\r\nConnection: close\r\n\r\n")
	data, _ := io.ReadAll(c)
	if !strings.Contains(string(data), "501") {
		t.Fatalf("response: %q", data)
	}
}

func TestHeadOmitsBody(t *testing.T) {
	s := startServer(t, DefaultConfig(testStore()))
	c, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fmt.Fprintf(c, "HEAD /hello HTTP/1.1\r\nConnection: close\r\n\r\n")
	data, _ := io.ReadAll(c)
	out := string(data)
	if !strings.Contains(out, "Content-Length: 11") {
		t.Fatalf("HEAD missing length: %q", out)
	}
	if strings.Contains(out, "hello world") {
		t.Fatalf("HEAD leaked body: %q", out)
	}
}

func TestManyConcurrentClients(t *testing.T) {
	s := startServer(t, DefaultConfig(testStore()))
	const clients = 40
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get("http://" + s.Addr() + "/hello")
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				errs <- err
				return
			}
			if string(b) != "hello world" {
				errs <- fmt.Errorf("bad body %q", b)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := s.Stats().Replies; got < clients {
		t.Fatalf("replies = %d, want >= %d", got, clients)
	}
}

func TestMultipleWorkers(t *testing.T) {
	cfg := DefaultConfig(testStore())
	cfg.Workers = 4
	s := startServer(t, cfg)
	for i := 0; i < 12; i++ {
		resp, _ := httpGet(t, s.Addr(), "/hello")
		if resp.StatusCode != 200 {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
}

func TestAbruptClientCloseCleansUp(t *testing.T) {
	s := startServer(t, DefaultConfig(testStore()))
	for i := 0; i < 10; i++ {
		c, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(c, "GET /big HTTP/1.1\r\n\r\n")
		c.(*net.TCPConn).SetLinger(0)
		c.Close()
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if s.Stats().ConnsOpen == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("connections leaked: %+v", s.Stats())
}

// Connections are closed without an epoll_ctl(DEL) in front (close(2)
// takes the socket out of the interest set; Poller.Forget only updates
// the invariant build's shadow). Under -tags invariants every loop
// iteration audits the shadow against the connection table, so any
// drift through this churn — orderly closes, resets, server-side RSTs,
// descriptor numbers reused at once — panics the loop; in the default
// build the test still holds the accounting to zero.
func TestConnectionChurnKeepsInterestSetExact(t *testing.T) {
	cfg := DefaultConfig(testStore())
	cfg.Shards = 1
	cfg.HeaderTimeout = 30 * time.Millisecond // slow headers are reset by the server
	s := startServer(t, cfg)
	const rounds = 100
	for i := 0; i < rounds; i++ {
		c, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		switch i % 4 {
		case 0, 1: // served, then closed by the server
			fmt.Fprintf(c, "GET /hello HTTP/1.1\r\nConnection: close\r\n\r\n")
			if data, err := io.ReadAll(c); err != nil || !strings.Contains(string(data), "hello world") {
				t.Fatalf("round %d: %q, %v", i, data, err)
			}
		case 2: // reset by the client with a large reply in flight
			fmt.Fprintf(c, "GET /big HTTP/1.1\r\n\r\n")
			c.(*net.TCPConn).SetLinger(0)
		case 3: // half a request line: reset by the server's header clock
			fmt.Fprintf(c, "GET /hel")
			c.SetReadDeadline(time.Now().Add(2 * time.Second))
			if _, err := c.Read(make([]byte, 1)); err == nil {
				t.Fatalf("round %d: a slow header was answered", i)
			}
		}
		c.Close()
	}
	deadline := time.Now().Add(3 * time.Second)
	for s.Stats().ConnsOpen != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	st := s.Stats()
	if st.ConnsOpen != 0 || st.Accepted != rounds || st.HeaderTimeouts != rounds/4 {
		t.Fatalf("after the churn: %+v", st)
	}
}

func TestConfigValidation(t *testing.T) {
	store := testStore()
	bad := []Config{
		{Workers: 0, Backlog: 1, ReadBuf: 4096, Store: store},
		{Workers: 1, Backlog: 0, ReadBuf: 4096, Store: store},
		{Workers: 1, Backlog: 1, ReadBuf: 8, Store: store},
		{Workers: 1, Backlog: 1, ReadBuf: 4096, Store: nil},
		{Workers: 1, Backlog: 1, ReadBuf: 4096, Store: store, Port: -2},
	}
	for i, cfg := range bad {
		if _, err := NewServer(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestSurgeStoreServesObjects(t *testing.T) {
	scfg := surge.DefaultConfig()
	scfg.NumObjects = 50
	set, err := surge.BuildObjectSet(scfg, dist.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	store := NewSurgeStore(set, scfg.MaxObjectBytes, 2)
	s := startServer(t, DefaultConfig(store))
	for _, id := range []int{0, 7, 49} {
		resp, body := httpGet(t, s.Addr(), store.PathFor(id))
		if resp.StatusCode != 200 {
			t.Fatalf("obj %d: status %d", id, resp.StatusCode)
		}
		if int64(len(body)) != set.Object(id).Size {
			t.Fatalf("obj %d: got %d bytes, want %d", id, len(body), set.Object(id).Size)
		}
	}
	if _, _, ok := store.Get("/obj/9999"); ok {
		t.Fatal("out-of-range object served")
	}
	if _, _, ok := store.Get("/obj/abc"); ok {
		t.Fatal("non-numeric object served")
	}
	if _, _, ok := store.Get("/other"); ok {
		t.Fatal("non-obj path served")
	}
	if store.Hits() != 3 {
		t.Fatalf("hits = %d", store.Hits())
	}
}

func TestParseObjPath(t *testing.T) {
	cases := []struct {
		in string
		id int
		ok bool
	}{
		{"/obj/0", 0, true},
		{"/obj/123", 123, true},
		{"/obj/", 0, false},
		{"/obj", 0, false},
		{"/obj/12a", 0, false},
		{"/object/1", 0, false},
		{"/obj/99999999999999999999", 0, false},
	}
	for _, c := range cases {
		id, ok := parseObjPath(c.in)
		if ok != c.ok || (ok && id != c.id) {
			t.Errorf("parseObjPath(%q) = %d,%v want %d,%v", c.in, id, ok, c.id, c.ok)
		}
	}
}

func TestStopIsIdempotentAndReleasesPort(t *testing.T) {
	cfg := DefaultConfig(testStore())
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	port := s.Port()
	s.Stop()
	s.Stop()
	// The port must be reusable immediately (SO_REUSEADDR + real close).
	cfg.Port = port
	s2, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("rebind failed: %v", err)
	}
	if err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	s2.Stop()
}

func TestIdleTimeoutDisabledByDefault(t *testing.T) {
	s := startServer(t, DefaultConfig(testStore()))
	c, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fmt.Fprintf(c, "GET /hello HTTP/1.1\r\n\r\n")
	r := bufio.NewReader(c)
	resp, err := http.ReadResponse(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	// Wait well past any plausible timeout; the connection must survive
	// (the paper's nio server never disconnects idle clients).
	time.Sleep(600 * time.Millisecond)
	fmt.Fprintf(c, "GET /hello HTTP/1.1\r\n\r\n")
	if _, err := http.ReadResponse(r, nil); err != nil {
		t.Fatalf("idle connection died without IdleTimeout: %v", err)
	}
	if s.Stats().IdleCloses != 0 {
		t.Fatalf("idle closes without the knob: %+v", s.Stats())
	}
}

func TestIdleTimeoutAblation(t *testing.T) {
	// The live ablation: give the event-driven server the thread-pool
	// world's recycling policy and the reset behaviour appears — the
	// errors come from the policy, not the architecture.
	cfg := DefaultConfig(testStore())
	cfg.IdleTimeout = 150 * time.Millisecond
	s := startServer(t, cfg)
	c, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fmt.Fprintf(c, "GET /hello HTTP/1.1\r\n\r\n")
	r := bufio.NewReader(c)
	resp, err := http.ReadResponse(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().IdleCloses == 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if s.Stats().IdleCloses == 0 {
		t.Fatal("idle sweeper never fired")
	}
	// The next use of the connection fails (RST or EOF).
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	fmt.Fprintf(c, "GET /hello HTTP/1.1\r\n\r\n")
	if _, err := r.ReadByte(); err == nil {
		t.Fatal("connection survived the idle timeout")
	}
	if got := s.Stats().ConnsOpen; got != 0 {
		t.Fatalf("swept connection still accounted: %+v", s.Stats())
	}
}

func TestIdleTimeoutValidation(t *testing.T) {
	cfg := DefaultConfig(testStore())
	cfg.IdleTimeout = -time.Second
	if _, err := NewServer(cfg); err == nil {
		t.Fatal("negative IdleTimeout accepted")
	}
	cfg = DefaultConfig(testStore())
	cfg.HeaderTimeout = -time.Second
	if _, err := NewServer(cfg); err == nil {
		t.Fatal("negative HeaderTimeout accepted")
	}
	cfg = DefaultConfig(testStore())
	cfg.MaxConns = -1
	if _, err := NewServer(cfg); err == nil {
		t.Fatal("negative MaxConns accepted")
	}
}

// Regression: Stop before Start used to panic on the nil acceptor and
// leak the bound listen fd.
func TestStopBeforeStartReleasesListener(t *testing.T) {
	s, err := NewServer(DefaultConfig(testStore()))
	if err != nil {
		t.Fatal(err)
	}
	port := s.Port()
	s.Stop() // must not panic
	s.Stop() // and stay idempotent

	// The fd must actually be closed: rebinding the same port succeeds.
	cfg := DefaultConfig(testStore())
	cfg.Port = port
	s2, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("rebind after Stop-before-Start failed (leaked fd?): %v", err)
	}
	s2.Stop()
}

func TestDrainBeforeStart(t *testing.T) {
	s, err := NewServer(DefaultConfig(testStore()))
	if err != nil {
		t.Fatal(err)
	}
	if !s.Drain(100 * time.Millisecond) {
		t.Fatal("drain of a never-started server reported stragglers")
	}
}

func TestHeaderTimeoutResetsSlowHeaders(t *testing.T) {
	cfg := DefaultConfig(testStore())
	cfg.HeaderTimeout = 100 * time.Millisecond
	s := startServer(t, cfg)

	c, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Dribble a partial request line, then stall mid-header.
	if _, err := c.Write([]byte("GET /hello HT")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().HeaderTimeouts == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	st := s.Stats()
	if st.HeaderTimeouts == 0 {
		t.Fatalf("header sweeper never fired: %+v", st)
	}
	if st.ConnsOpen != 0 {
		t.Fatalf("timed-out connection still accounted: %+v", st)
	}
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("connection survived the header timeout")
	}
}

func TestHeaderTimeoutSparesIdleKeepAlive(t *testing.T) {
	// An idle keep-alive connection *between* requests must not be hit:
	// HeaderTimeout is not IdleTimeout.
	cfg := DefaultConfig(testStore())
	cfg.HeaderTimeout = 100 * time.Millisecond
	s := startServer(t, cfg)

	c, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := bufio.NewReader(c)
	fmt.Fprintf(c, "GET /hello HTTP/1.1\r\nHost: x\r\n\r\n")
	resp, err := http.ReadResponse(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	time.Sleep(400 * time.Millisecond) // well past HeaderTimeout

	fmt.Fprintf(c, "GET /hello HTTP/1.1\r\nHost: x\r\n\r\n")
	if _, err := http.ReadResponse(r, nil); err != nil {
		t.Fatalf("idle keep-alive connection was header-timed out: %v", err)
	}
	if ht := s.Stats().HeaderTimeouts; ht != 0 {
		t.Fatalf("spurious header timeouts: %d", ht)
	}
}

func TestMaxConnsShedsWith503(t *testing.T) {
	cfg := DefaultConfig(testStore())
	cfg.MaxConns = 4
	s := startServer(t, cfg)

	// Fill the admission budget with held-open connections.
	var held []net.Conn
	defer func() {
		for _, c := range held {
			c.Close()
		}
	}()
	for i := 0; i < 4; i++ {
		c, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, c)
		fmt.Fprintf(c, "GET /hello HTTP/1.1\r\nHost: x\r\n\r\n")
		if _, err := http.ReadResponse(bufio.NewReader(c), nil); err != nil {
			t.Fatalf("conn %d: %v", i, err)
		}
	}

	// The next connection must be shed with a 503 and a close.
	c, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	data, _ := io.ReadAll(c)
	if !strings.Contains(string(data), "503") {
		t.Fatalf("shed connection got %q, want a 503", data)
	}
	st := s.Stats()
	if st.Shed == 0 {
		t.Fatalf("no shed accounting: %+v", st)
	}
	if st.ConnsOpen > int64(cfg.MaxConns) {
		t.Fatalf("ConnsOpen %d exceeds MaxConns %d", st.ConnsOpen, cfg.MaxConns)
	}

	// Releasing a slot re-admits new connections.
	held[0].Close()
	held = held[1:]
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.Stats().ConnsOpen < int64(cfg.MaxConns) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	c2, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	fmt.Fprintf(c2, "GET /hello HTTP/1.1\r\nHost: x\r\n\r\n")
	resp, err := http.ReadResponse(bufio.NewReader(c2), nil)
	if err != nil {
		t.Fatalf("re-admission failed: %v", err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("re-admitted connection got %d", resp.StatusCode)
	}
}

func TestDrainFinishesInFlightAndClosesIdle(t *testing.T) {
	store := testStore()
	store["/huge"] = make([]byte, 8<<20)
	s := startServer(t, DefaultConfig(store))

	// Idle keep-alive connection: must be closed immediately by drain.
	idle, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	fmt.Fprintf(idle, "GET /hello HTTP/1.1\r\nHost: x\r\n\r\n")
	ri := bufio.NewReader(idle)
	resp, err := http.ReadResponse(ri, nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// In-flight response: request a huge object and read it slowly so
	// the server still holds queued output when the drain begins.
	slow, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	fmt.Fprintf(slow, "GET /huge HTTP/1.1\r\nHost: x\r\n\r\n")
	time.Sleep(50 * time.Millisecond) // let the server queue the response

	type result struct {
		n   int64
		err error
	}
	done := make(chan result, 1)
	go func() {
		var total int64
		buf := make([]byte, 256<<10)
		for {
			slow.SetReadDeadline(time.Now().Add(10 * time.Second))
			n, err := slow.Read(buf)
			total += int64(n)
			if err != nil {
				done <- result{total, err}
				return
			}
			time.Sleep(2 * time.Millisecond) // slow reader
		}
	}()

	if !s.Drain(10 * time.Second) {
		t.Fatal("drain timed out with a live in-flight response")
	}
	res := <-done
	if res.err != io.EOF {
		t.Fatalf("in-flight read ended with %v, want clean EOF", res.err)
	}
	// Full response head + 8 MiB body must have arrived before the close.
	if res.n < 8<<20 {
		t.Fatalf("in-flight response truncated at %d bytes", res.n)
	}
	// The idle connection must have been closed (EOF, no data).
	idle.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := ri.ReadByte(); err != io.EOF {
		t.Fatalf("idle connection saw %v, want EOF", err)
	}
	if open := s.Stats().ConnsOpen; open != 0 {
		t.Fatalf("connections survived drain: %d", open)
	}
}

func TestDrainRejectsNewConnections(t *testing.T) {
	s := startServer(t, DefaultConfig(testStore()))
	if !s.Drain(5 * time.Second) {
		t.Fatal("empty server failed to drain")
	}
	if _, err := net.DialTimeout("tcp", s.Addr(), 500*time.Millisecond); err == nil {
		t.Fatal("dial succeeded after drain")
	}
}
