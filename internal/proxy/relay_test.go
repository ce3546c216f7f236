//go:build linux

package proxy

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/httpwire"
	"repro/internal/sysfault"
)

// socketpair returns two connected non-blocking stream sockets.
func socketpair(t *testing.T) (a, b int) {
	t.Helper()
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Close(fds[0]); syscall.Close(fds[1]) })
	return fds[0], fds[1]
}

// A steady keep-alive exchange through the relay path — request read and
// parsed, relay bound to a parked upstream socket, request forwarded,
// reply read, framed, lent to the client's queue and flushed, socket
// parked again — allocates what the two parsers allocate (a head string
// and a message struct each) and nothing of the proxy's own: the relay
// and its wire buffer are recycled, the forwarded header set is built in
// the loop's scratch, the two queues rewind, and no reply byte is copied.
// Driven on the test's goroutine over socketpairs (no loop is running),
// so the count is the relay path's alone.
func TestSteadyRelayAllocations(t *testing.T) {
	s, err := NewServer(noProbes(BackendConfig{Addr: "127.0.0.1:1"})) // never dialed: a socket is parked below
	if err != nil {
		t.Fatal(err)
	}
	defer s.teardown()
	clientFD, dfd := socketpair(t)
	backendFD, ufd := socketpair(t)
	for _, fd := range []int{dfd, ufd} {
		if err := s.poller.Add(fd, true, false); err != nil {
			t.Fatal(err)
		}
	}
	d := &dconn{fd: dfd, peer: "127.0.0.1", acceptedAt: time.Now()}
	s.dconns[dfd] = d
	b := s.backends[0]
	u := &uconn{fd: ufd, b: b}
	s.uconns[ufd] = u
	b.open.Add(1)
	s.parkIdle(u)

	request := []byte("GET /obj/1234 HTTP/1.1\r\nHost: bench\r\n\r\n")
	reply := httpwire.AppendResponseHeader(nil, 200, "application/octet-stream", 1024, true)
	reply = append(reply, bytes.Repeat([]byte("x"), 1024)...)
	forwarded := httpwire.AppendRequestHead(nil, "GET", "/obj/1234", "HTTP/1.1",
		[]httpwire.Header{{Name: "Host", Value: "bench"}, {Name: "Via", Value: ViaToken}, {Name: "X-Forwarded-For", Value: "127.0.0.1"}})
	scratch := make([]byte, 4096)
	mustRead := func(fd int, want []byte) {
		n, err := syscall.Read(fd, scratch)
		if err != nil || !bytes.Equal(scratch[:n], want) {
			t.Fatalf("read %d bytes (err %v): %q, want %q", n, err, scratch[:max(n, 0)], want)
		}
	}
	exchange := func() {
		if _, err := syscall.Write(clientFD, request); err != nil {
			t.Fatal(err)
		}
		s.dReadable(d)
		mustRead(backendFD, forwarded)
		if _, err := syscall.Write(backendFD, reply); err != nil {
			t.Fatal(err)
		}
		s.uReadable(u)
		mustRead(clientFD, reply)
	}
	exchange()
	exchange()
	if got := testing.AllocsPerRun(100, exchange); got > 6 {
		t.Errorf("a steady-state relayed exchange allocates %.1f objects, want at most 6 (2 per parsed head)", got)
	}
	if st := s.Stats(); st.Replies != 103 || st.UpstreamReuses != 103 || st.UpstreamErrors != 0 {
		t.Errorf("stats after 103 exchanges: %+v", st)
	}
	if len(d.out) != 0 || len(d.pending) != 0 || cap(d.out) > 4 || cap(d.pending) > 4 || len(s.freeRelays) != 1 {
		t.Errorf("queues did not rewind: out %d/%d, pending %d/%d, free relays %d",
			len(d.out), cap(d.out), len(d.pending), cap(d.pending), len(s.freeRelays))
	}
}

// scriptedBackend serves GET /<name> with a body derived from the name,
// keep-alive, and records every byte each connection received. On its
// first connection it answers the SECOND request (GET /one) as soon as
// it has that request's first byte — a backend whose reply overtakes the
// request.
type scriptedBackend struct {
	ln   net.Listener
	mu   sync.Mutex
	recv [][]byte // per connection, in accept order
	wg   sync.WaitGroup
}

func bodyFor(path string) string { return "body of " + path + "\n" }

func startScriptedBackend(t *testing.T) *scriptedBackend {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sb := &scriptedBackend{ln: ln}
	sb.wg.Add(1)
	go func() {
		defer sb.wg.Done()
		for idx := 0; ; idx++ {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			sb.mu.Lock()
			sb.recv = append(sb.recv, nil)
			sb.mu.Unlock()
			sb.wg.Add(1)
			go sb.serve(c, idx)
		}
	}()
	t.Cleanup(func() { ln.Close(); sb.wg.Wait() })
	return sb
}

func (sb *scriptedBackend) serve(c net.Conn, idx int) {
	defer sb.wg.Done()
	defer c.Close()
	reply := func(path string) {
		fmt.Fprintf(c, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\nConnection: keep-alive\r\n\r\n%s", len(bodyFor(path)), bodyFor(path))
	}
	br := bufio.NewReader(io.TeeReader(c, recorder{sb, idx}))
	for n := 0; ; n++ {
		early := idx == 0 && n == 1
		if early {
			if _, err := br.Peek(1); err != nil {
				return
			}
			reply("/one")
		}
		req, err := http.ReadRequest(br)
		if err != nil {
			return
		}
		if !early {
			reply(req.RequestURI)
		}
	}
}

type recorder struct {
	sb  *scriptedBackend
	idx int
}

func (r recorder) Write(p []byte) (int, error) {
	r.sb.mu.Lock()
	r.sb.recv[r.idx] = append(r.sb.recv[r.idx], p...)
	r.sb.mu.Unlock()
	return len(p), nil
}

func (sb *scriptedBackend) received() [][]byte {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	out := make([][]byte, len(sb.recv))
	for i, b := range sb.recv {
		out[i] = append([]byte(nil), b...)
	}
	return out
}

func awaitStat(t *testing.T, what string, get func() int64, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for get() < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d after 5s, want %d", what, get(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// An upstream socket whose request was only partly written when the
// reply arrived must not be parked for reuse. The script, on a parked
// keep-alive socket (a connecting one is not read before its first
// request is out): the next write at the proxy's write site — the
// forwarded GET /one — is cut to one byte and every later write is
// refused with EAGAIN, so the request's tail stays in pendingWrite with
// write interest armed; the backend answers on that first byte; GET /two
// is already pipelined behind it. When the proxy has counted the reply
// the fault plan is lifted and everything drains.
//
// At the parent commit relayComplete parks the socket on the reply's
// keep-alive alone, the pipelined relay takes it straight back, and
// bindRelay overwrites pendingWrite: the backend's first connection
// receives GET /zero, then "G" followed by the whole third request
// ("GGET /two ...") — the tail of GET /one is never sent, one connection
// is dialed and reused twice, and GET /two is never answered (run there,
// this test times out waiting for it, with exactly that transcript).
// With relays' wire buffers recycled, the overwritten tail would in
// addition be another request's bytes.
func TestHalfWrittenUpstreamIsNotReused(t *testing.T) {
	sb := startScriptedBackend(t)
	p := startProxy(t, noProbes(BackendConfig{Addr: sb.ln.Addr().String()}))

	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(c)
	expect := func(path string) {
		t.Helper()
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || string(body) != bodyFor(path) {
			t.Fatalf("%s: status %d body %q", path, resp.StatusCode, body)
		}
	}
	if _, err := io.WriteString(c, "GET /zero HTTP/1.1\r\nHost: sut\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	expect("/zero") // the upstream socket is now parked

	sysfault.Install(sysfault.New(1, sysfault.MustParsePlan("write:short:1:len=1:count=1; write:eagain:1:after=1")...))
	defer sysfault.Uninstall()
	if _, err := io.WriteString(c, "GET /one HTTP/1.1\r\nHost: sut\r\n\r\nGET /two HTTP/1.1\r\nHost: sut\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	awaitStat(t, "replies", func() int64 { return p.Stats().Replies }, 2)
	sysfault.Uninstall()
	expect("/one")
	expect("/two")
	wire := func(path string) string {
		return "GET " + path + " HTTP/1.1\r\nHost: sut\r\nVia: " + ViaToken + "\r\nX-Forwarded-For: 127.0.0.1\r\n\r\n"
	}
	awaitStat(t, "backend connections", func() int64 { return int64(len(sb.received())) }, 2)
	recv := sb.received()
	got, ok := strings.CutPrefix(string(recv[0]), wire("/zero"))
	if !ok || got == "" || got == wire("/one") || !strings.HasPrefix(wire("/one"), got) {
		t.Errorf("first upstream connection received %q, want GET /zero, a proper prefix of GET /one, and nothing after it", recv[0])
	}
	if got := string(recv[1]); got != wire("/two") {
		t.Errorf("second upstream connection received %q, want GET /two whole", got)
	}
	if st := p.Stats(); st.UpstreamDials != 2 || st.UpstreamReuses != 1 || st.Replies != 3 {
		t.Errorf("stats: %+v, want 2 dials, 1 reuse, 3 replies", st)
	}
}

// The loan under back-pressure: with short writes and ENOBUFS at the
// proxy's write site the client's socket rarely takes a whole read
// buffer, so nearly every lent buffer has to be converted to a copy
// before the next read — the only path on which it is. Pipelined 64 KiB
// replies (two or more reads each) must arrive byte-exact and in order,
// bytes_out must equal what the client read, and the write site must
// replay from the seed.
func TestLentBufferUnderWriteFaults(t *testing.T) {
	const (
		plan  = "write:short:0.3:len=7; write:enobufs:0.1"
		seed  = 9
		depth = 24
	)
	bodies := map[string][]byte{}
	for i := 0; i < 3; i++ {
		b := make([]byte, 64<<10)
		for j := range b {
			b[j] = byte(j*(2*i+3) + i)
		}
		bodies[fmt.Sprintf("/obj/%d", i)] = b
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // a plain keep-alive backend on blocking sockets: the fault plan never touches it
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				br := bufio.NewReader(c)
				for {
					req, err := http.ReadRequest(br)
					if err != nil {
						return
					}
					body := bodies[req.RequestURI]
					head := httpwire.AppendResponseHeader(nil, 200, "application/octet-stream", int64(len(body)), true)
					if _, err := c.Write(append(head, body...)); err != nil {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	p := startProxy(t, noProbes(BackendConfig{Addr: ln.Addr().String()}))

	inj := sysfault.New(seed, sysfault.MustParsePlan(plan)...)
	sysfault.Install(inj)
	defer sysfault.Uninstall()

	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(60 * time.Second))
	var wire strings.Builder
	var want []string
	for i := 0; i < depth; i++ {
		path := fmt.Sprintf("/obj/%d", i%len(bodies))
		conn := "keep-alive"
		if i == depth-1 {
			conn = "close"
		}
		fmt.Fprintf(&wire, "GET %s HTTP/1.1\r\nHost: sut\r\nConnection: %s\r\n\r\n", path, conn)
		want = append(want, path)
	}
	if _, err := io.WriteString(c, wire.String()); err != nil {
		t.Fatal(err)
	}
	var clientRead int64
	br := bufio.NewReader(io.TeeReader(c, countWriter{&clientRead}))
	for i, path := range want {
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("reply %d (%s): %v", i, path, err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != 200 || !bytes.Equal(got, bodies[path]) {
			t.Fatalf("reply %d (%s): status %d, %d body bytes (err %v), want 200 and %d exact",
				i, path, resp.StatusCode, len(got), err, len(bodies[path]))
		}
	}
	if rest, err := io.ReadAll(br); err != nil || len(rest) != 0 {
		t.Fatalf("after the last reply: %d stray bytes, err %v", len(rest), err)
	}
	sysfault.Uninstall()

	var shorts, enobufs int
	var live []sysfault.Decision
	for _, d := range inj.Decisions() {
		if d.Site != sysfault.SiteWrite {
			continue
		}
		live = append(live, d)
		if d.Errno == syscall.ENOBUFS {
			enobufs++
		} else {
			shorts++
		}
	}
	if shorts < 20 || enobufs < 5 {
		t.Fatalf("vacuous: the plan fired %d shorts and %d ENOBUFS", shorts, enobufs)
	}
	st := p.Stats()
	if st.BytesOut != clientRead {
		t.Errorf("bytes_out = %d, the client read %d", st.BytesOut, clientRead)
	}
	if st.Replies != depth || st.UpstreamErrors != 0 || st.BadGateway != 0 {
		t.Errorf("stats: %+v, want %d replies and no upstream error", st, depth)
	}
	offline := sysfault.New(seed, sysfault.MustParsePlan(plan)...)
	var replay []sysfault.Decision
	for i := uint64(0); i < inj.Stats()[sysfault.SiteWrite].Calls; i++ {
		if d, ok := offline.Step(sysfault.SiteWrite); ok {
			replay = append(replay, d)
		}
	}
	if len(live) != len(replay) {
		t.Fatalf("write site: live run fired %d decisions, offline replay %d", len(live), len(replay))
	}
	for i := range live {
		if live[i] != replay[i] {
			t.Fatalf("write site decision %d diverged: live %v, replay %v", i, live[i], replay[i])
		}
	}
}

type countWriter struct{ n *int64 }

func (w countWriter) Write(p []byte) (int, error) { *w.n += int64(len(p)); return len(p), nil }
