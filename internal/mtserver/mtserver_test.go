package mtserver

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

	"repro/internal/core"
)

func testStore() core.MapStore {
	return core.MapStore{
		"/hello": []byte("hello world"),
		"/big":   make([]byte, 200<<10),
	}
}

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

func TestServeBasicGet(t *testing.T) {
	s := startServer(t, DefaultConfig(testStore()))
	resp, err := http.Get("http://" + s.Addr() + "/hello")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 || string(body) != "hello world" {
		t.Fatalf("status=%d body=%q", resp.StatusCode, body)
	}
	// The pool thread bumps the reply counter after the write that let
	// the client finish reading: await it rather than race it.
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats().Replies < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st := s.Stats(); st.Replies < 1 || st.Accepted < 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestServe404And501(t *testing.T) {
	s := startServer(t, DefaultConfig(testStore()))
	resp, err := http.Get("http://" + s.Addr() + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	c, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fmt.Fprintf(c, "PUT /hello HTTP/1.1\r\nConnection: close\r\n\r\n")
	data, _ := io.ReadAll(c)
	if !strings.Contains(string(data), "501") {
		t.Fatalf("response %q", data)
	}
}

func TestKeepAliveReuse(t *testing.T) {
	s := startServer(t, DefaultConfig(testStore()))
	c, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := bufio.NewReader(c)
	for i := 0; i < 4; i++ {
		fmt.Fprintf(c, "GET /hello HTTP/1.1\r\n\r\n")
		resp, err := http.ReadResponse(r, nil)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if got := s.Stats().Accepted; got != 1 {
		t.Fatalf("accepted = %d, want 1", got)
	}
}

func TestPipelinedSequentialService(t *testing.T) {
	s := startServer(t, DefaultConfig(testStore()))
	c, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	wire := strings.Repeat("GET /hello HTTP/1.1\r\n\r\n", 3)
	if _, err := c.Write([]byte(wire)); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(c)
	for i := 0; i < 3; i++ {
		resp, err := http.ReadResponse(r, nil)
		if err != nil {
			t.Fatalf("pipelined %d: %v", i, err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if string(b) != "hello world" {
			t.Fatalf("pipelined %d: %q", i, b)
		}
	}
}

func TestKeepAliveTimeoutDisconnects(t *testing.T) {
	cfg := DefaultConfig(testStore())
	cfg.KeepAlive = 150 * time.Millisecond
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
	// Exceed the idle timeout, then try to reuse the connection: the
	// server has closed it (Apache-style thread recycling).
	time.Sleep(400 * time.Millisecond)
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	fmt.Fprintf(c, "GET /hello HTTP/1.1\r\n\r\n")
	_, err = io.ReadAll(r)
	if err == nil && s.Stats().IdleCloses == 0 {
		t.Fatalf("idle connection survived the keep-alive timeout: %+v", s.Stats())
	}
	if s.Stats().IdleCloses != 1 {
		t.Fatalf("IdleCloses = %d, want 1", s.Stats().IdleCloses)
	}
}

func TestPoolBoundConcurrency(t *testing.T) {
	cfg := DefaultConfig(testStore())
	cfg.Threads = 2
	cfg.KeepAlive = 500 * time.Millisecond
	s := startServer(t, cfg)

	// Two clients occupy both threads with open keep-alive connections.
	var holds []net.Conn
	for i := 0; i < 2; i++ {
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
		holds = append(holds, c)
	}
	// A third client connects (kernel accepts) but is not served until a
	// thread frees up at the keep-alive timeout.
	c3, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	start := time.Now()
	fmt.Fprintf(c3, "GET /hello HTTP/1.1\r\n\r\n")
	r3 := bufio.NewReader(c3)
	c3.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := http.ReadResponse(r3, nil)
	if err != nil {
		t.Fatalf("third client never served: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if waited := time.Since(start); waited < 300*time.Millisecond {
		t.Fatalf("third client served in %v; pool bound not enforced", waited)
	}
	_ = holds
}

func TestManyConcurrentClients(t *testing.T) {
	cfg := DefaultConfig(testStore())
	cfg.Threads = 16
	s := startServer(t, cfg)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get("http://" + s.Addr() + "/big")
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
			if len(b) != 200<<10 {
				errs <- fmt.Errorf("short body: %d", len(b))
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestBadRequest400(t *testing.T) {
	s := startServer(t, DefaultConfig(testStore()))
	c, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fmt.Fprintf(c, "TOTAL GARBAGE HERE\r\n")
	data, _ := io.ReadAll(c)
	if !strings.Contains(string(data), "400") {
		t.Fatalf("response %q", data)
	}
	if s.Stats().BadRequest != 1 {
		t.Fatalf("stats = %+v", s.Stats())
	}
}

func TestConfigValidation(t *testing.T) {
	store := testStore()
	bad := []Config{
		{Threads: 0, KeepAlive: time.Second, ReadBuf: 4096, Store: store},
		{Threads: 1, KeepAlive: -time.Second, ReadBuf: 4096, Store: store},
		{Threads: 1, KeepAlive: time.Second, ReadBuf: 1, Store: store},
		{Threads: 1, KeepAlive: time.Second, ReadBuf: 4096, Store: nil},
		{Threads: 1, KeepAlive: time.Second, ReadBuf: 4096, Store: store, Port: 70000},
		{Threads: 1, KeepAlive: time.Second, ReadBuf: 4096, Store: store, MaxConns: -1},
	}
	for i, cfg := range bad {
		if _, err := NewServer(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestStopIdempotent(t *testing.T) {
	s := startServer(t, DefaultConfig(testStore()))
	s.Stop()
	s.Stop()
}

// Regression: KeepAlive == 0 used to arm time.Now().Add(0) deadlines, so
// every read and write expired immediately. Zero must mean "no deadline".
func TestZeroKeepAliveMeansNoDeadline(t *testing.T) {
	cfg := DefaultConfig(testStore())
	cfg.KeepAlive = 0
	s := startServer(t, cfg)

	c, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// With the bug, the worker's read deadline has long expired by the
	// time this request arrives and the connection is already doomed.
	time.Sleep(150 * time.Millisecond)
	fmt.Fprintf(c, "GET /hello HTTP/1.1\r\nHost: x\r\n\r\n")
	r := bufio.NewReader(c)
	resp, err := http.ReadResponse(r, nil)
	if err != nil {
		t.Fatalf("request on a zero-KeepAlive server failed: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "hello world" {
		t.Fatalf("body = %q", body)
	}
	// And the connection survives arbitrary idling: no recycling policy.
	time.Sleep(300 * time.Millisecond)
	fmt.Fprintf(c, "GET /hello HTTP/1.1\r\nHost: x\r\n\r\n")
	if _, err := http.ReadResponse(r, nil); err != nil {
		t.Fatalf("idle connection died with KeepAlive=0: %v", err)
	}
	if ic := s.Stats().IdleCloses; ic != 0 {
		t.Fatalf("idle closes with the policy disabled: %d", ic)
	}
}

func TestMaxConnsShedsWith503(t *testing.T) {
	cfg := DefaultConfig(testStore())
	cfg.Threads = 2
	cfg.MaxConns = 2
	s := startServer(t, cfg)

	var held []net.Conn
	defer func() {
		for _, c := range held {
			c.Close()
		}
	}()
	for i := 0; i < 2; i++ {
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

	c, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	data, _ := io.ReadAll(c)
	if !strings.Contains(string(data), "503") {
		t.Fatalf("over-limit connection got %q, want a 503", data)
	}
	st := s.Stats()
	if st.Shed == 0 {
		t.Fatalf("no shed accounting: %+v", st)
	}
	if st.ConnsOpen > int64(cfg.MaxConns) {
		t.Fatalf("ConnsOpen %d exceeds MaxConns %d", st.ConnsOpen, cfg.MaxConns)
	}
}

func TestDrainFinishesInFlightAndClosesIdle(t *testing.T) {
	store := testStore()
	store["/huge"] = make([]byte, 8<<20)
	cfg := DefaultConfig(store)
	cfg.Threads = 4
	s := startServer(t, cfg)

	// Idle keep-alive connection: drain must close it cleanly (EOF, not
	// the RST an expired keep-alive produces).
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

	// In-flight response: huge object read slowly, so the blocking
	// write is still in progress when the drain begins.
	slow, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	fmt.Fprintf(slow, "GET /huge HTTP/1.1\r\nHost: x\r\n\r\n")
	time.Sleep(50 * time.Millisecond)

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
			time.Sleep(2 * time.Millisecond)
		}
	}()

	if !s.Drain(10 * time.Second) {
		t.Fatal("drain timed out with a live in-flight response")
	}
	res := <-done
	if res.err != io.EOF {
		t.Fatalf("in-flight read ended with %v, want clean EOF", res.err)
	}
	if res.n < 8<<20 {
		t.Fatalf("in-flight response truncated at %d bytes", res.n)
	}
	idle.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := ri.ReadByte(); err != io.EOF {
		t.Fatalf("idle connection saw %v, want EOF", err)
	}
	st := s.Stats()
	if st.ConnsOpen != 0 {
		t.Fatalf("connections survived drain: %+v", st)
	}
	if st.IdleCloses != 0 {
		t.Fatalf("drain wake-ups miscounted as idle closes: %+v", st)
	}
	if _, err := net.DialTimeout("tcp", s.Addr(), 500*time.Millisecond); err == nil {
		t.Fatal("dial succeeded after drain")
	}
}
