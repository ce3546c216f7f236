//go:build linux

package reactor

import (
	"fmt"
	"net"
	"runtime"
	"syscall"
	"testing"
	"time"
)

func newPoller(t *testing.T) *Poller {
	t.Helper()
	p, err := NewPoller(64)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func listen(t *testing.T) (lfd, port int) {
	t.Helper()
	lfd, port, err := Listen(0, 128)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { CloseFD(0, lfd) })
	return lfd, port
}

func dial(t *testing.T, port int) net.Conn {
	t.Helper()
	c, err := net.DialTimeout("tcp", fmt.Sprintf("127.0.0.1:%d", port), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestListenPicksPort(t *testing.T) {
	_, port := listen(t)
	if port == 0 {
		t.Fatal("no port assigned")
	}
}

func TestAcceptAndReadiness(t *testing.T) {
	p := newPoller(t)
	lfd, port := listen(t)
	if err := p.Add(lfd, true, false); err != nil {
		t.Fatal(err)
	}
	client := dial(t, port)

	evs, err := p.Wait(2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].FD != lfd || !evs[0].Readable {
		t.Fatalf("expected listener readable, got %+v", evs)
	}
	fd, done, err := Accept(0, lfd)
	if err != nil || done {
		t.Fatalf("accept failed: %v done=%v", err, done)
	}
	t.Cleanup(func() { CloseFD(0, fd) })
	// A second accept should report EAGAIN.
	if _, done, err := Accept(0, lfd); err != nil || !done {
		t.Fatalf("second accept: done=%v err=%v", done, err)
	}

	// Client writes; connection fd becomes readable.
	if err := p.Add(fd, true, false); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	evs, err = p.Wait(2000)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range evs {
		if ev.FD == fd && ev.Readable {
			found = true
		}
	}
	if !found {
		t.Fatalf("conn fd not readable: %+v", evs)
	}
	buf := make([]byte, 16)
	n, eof, again, err := Read(0, fd, buf)
	if err != nil || eof || again || n != 4 || string(buf[:4]) != "ping" {
		t.Fatalf("read = %d %v %v %v (%q)", n, eof, again, err, buf[:n])
	}
	// No more data: EAGAIN.
	_, _, again, err = Read(0, fd, buf)
	if err != nil || !again {
		t.Fatalf("expected EAGAIN, got again=%v err=%v", again, err)
	}
}

func TestReadEOFOnPeerClose(t *testing.T) {
	p := newPoller(t)
	lfd, port := listen(t)
	_ = p
	client := dial(t, port)
	// Wait for the connection to be acceptable.
	waitReadable(t, lfd)
	fd, _, err := Accept(0, lfd)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { CloseFD(0, fd) })
	client.Close()
	// Poll until EOF is observable.
	deadline := time.Now().Add(2 * time.Second)
	for {
		buf := make([]byte, 8)
		_, eof, again, err := Read(0, fd, buf)
		if eof {
			return
		}
		if err != nil {
			t.Fatalf("read error: %v", err)
		}
		if !again {
			continue
		}
		if time.Now().After(deadline) {
			t.Fatal("never saw EOF")
		}
		time.Sleep(time.Millisecond)
	}
}

func waitReadable(t *testing.T, fd int) {
	t.Helper()
	p, err := NewPoller(8)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Add(fd, true, false); err != nil {
		t.Fatal(err)
	}
	evs, err := p.Wait(2000)
	if err != nil || len(evs) == 0 {
		t.Fatalf("fd never readable: %v %v", evs, err)
	}
}

func TestWriteInterestToggle(t *testing.T) {
	p := newPoller(t)
	lfd, port := listen(t)
	client := dial(t, port)
	waitReadable(t, lfd)
	fd, _, err := Accept(0, lfd)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { CloseFD(0, fd) })
	_ = client

	if err := p.Add(fd, true, false); err != nil {
		t.Fatal(err)
	}
	// No write interest: a wait should time out (no events).
	evs, err := p.Wait(50)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		if ev.FD == fd && ev.Writable {
			t.Fatal("writable event without write interest")
		}
	}
	// Enable write interest: an idle socket is immediately writable.
	if err := p.Modify(fd, true, true); err != nil {
		t.Fatal(err)
	}
	evs, err = p.Wait(2000)
	if err != nil {
		t.Fatal(err)
	}
	ok := false
	for _, ev := range evs {
		if ev.FD == fd && ev.Writable {
			ok = true
		}
	}
	if !ok {
		t.Fatalf("no writable event after Modify: %+v", evs)
	}
}

func TestWriteFillsSocketBuffer(t *testing.T) {
	p := newPoller(t)
	lfd, port := listen(t)
	client := dial(t, port)
	waitReadable(t, lfd)
	fd, _, err := Accept(0, lfd)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { CloseFD(0, fd) })
	_ = client // client never reads: the server-side buffer must fill
	_ = p

	payload := make([]byte, 256<<10)
	total := 0
	sawAgain := false
	for i := 0; i < 100; i++ {
		n, again, err := Write(0, fd, payload)
		if err != nil {
			t.Fatalf("write error: %v", err)
		}
		total += n
		if again {
			sawAgain = true
			break
		}
	}
	if !sawAgain {
		t.Fatalf("socket buffer never filled after %d bytes", total)
	}
}

func TestWakeupInterruptsWait(t *testing.T) {
	p := newPoller(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		start := time.Now()
		evs, err := p.Wait(5000)
		if err != nil {
			t.Errorf("wait error: %v", err)
		}
		if len(evs) != 0 {
			t.Errorf("wakeup leaked events: %+v", evs)
		}
		if time.Since(start) > 2*time.Second {
			t.Error("wakeup did not interrupt the wait")
		}
	}()
	time.Sleep(50 * time.Millisecond)
	p.Wakeup()
	<-done
}

func TestWakeupCoalesces(t *testing.T) {
	p := newPoller(t)
	for i := 0; i < 100; i++ {
		p.Wakeup()
	}
	evs, err := p.Wait(1000)
	if err != nil || len(evs) != 0 {
		t.Fatalf("coalesced wakeups misbehaved: %v %v", evs, err)
	}
	// The pipe must be drained: another short wait times out cleanly.
	evs, err = p.Wait(20)
	if err != nil || len(evs) != 0 {
		t.Fatalf("wake pipe not drained: %v %v", evs, err)
	}
}

func TestRemoveStopsEvents(t *testing.T) {
	p := newPoller(t)
	lfd, port := listen(t)
	if err := p.Add(lfd, true, false); err != nil {
		t.Fatal(err)
	}
	p.Remove(lfd)
	dial(t, port)
	evs, err := p.Wait(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 0 {
		t.Fatalf("events after Remove: %+v", evs)
	}
}

// Forget leaves the kernel's interest set to close(2). The proof that
// close really does take the descriptor out: the next socket gets the
// same number, and registering it is a fresh epoll_ctl(ADD) — which
// would fail EEXIST had the old registration survived — whose events
// are the new socket's, not the old one's.
func TestForgetThenCloseLeavesNoRegistration(t *testing.T) {
	p := newPoller(t)
	lfd, port := listen(t)
	last, reused := -1, 0
	for i := 0; i < 50; i++ {
		client := dial(t, port)
		waitReadable(t, lfd)
		fd, _, err := Accept(0, lfd)
		if err != nil {
			t.Fatal(err)
		}
		if fd == last {
			reused++
		}
		last = fd
		if err := p.Add(fd, true, false); err != nil {
			t.Fatalf("round %d: Add(fd %d) after a forgotten close: %v", i, fd, err)
		}
		if _, err := client.Write([]byte("x")); err != nil {
			t.Fatal(err)
		}
		evs, err := p.Wait(2000)
		if err != nil || len(evs) != 1 || evs[0].FD != fd || !evs[0].Readable {
			t.Fatalf("round %d: Wait = %+v, %v; want fd %d readable", i, evs, err, fd)
		}
		p.Forget(fd)
		if p.HasInterest(fd) { // the shadow is real only under -tags invariants
			t.Fatalf("round %d: fd %d still in the interest-set shadow after Forget", i, fd)
		}
		CloseFD(0, fd)
		client.Close()
		if evs, err := p.Wait(0); err != nil || len(evs) != 0 {
			t.Fatalf("round %d: events for a closed fd: %+v, %v", i, evs, err)
		}
	}
	if reused == 0 {
		t.Fatal("no descriptor number was ever reused: the test proved nothing")
	}
}

// An accepted socket must have Nagle off without a setsockopt of its
// own: Accept relies on inheriting the listener's TCP_NODELAY.
func TestAcceptedSocketInheritsNoDelay(t *testing.T) {
	for name, listenFn := range map[string]func(port, backlog int) (int, int, error){
		"Listen": Listen, "ListenReusePort": ListenReusePort,
	} {
		lfd, port, err := listenFn(0, 128)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Cleanup(func() { CloseFD(0, lfd) })
		dial(t, port)
		waitReadable(t, lfd)
		fd, _, err := Accept(0, lfd)
		if err != nil {
			t.Fatalf("%s: accept: %v", name, err)
		}
		t.Cleanup(func() { CloseFD(0, fd) })
		v, err := syscall.GetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY)
		if err != nil || v == 0 {
			t.Fatalf("%s: accepted fd has TCP_NODELAY = %d (%v), want it set", name, v, err)
		}
	}
}

func TestHangupReported(t *testing.T) {
	p := newPoller(t)
	lfd, port := listen(t)
	client := dial(t, port)
	waitReadable(t, lfd)
	fd, _, err := Accept(0, lfd)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Add(fd, true, false); err != nil {
		t.Fatal(err)
	}
	// Force an RST by setting SO_LINGER 0 on the client before close.
	tc := client.(*net.TCPConn)
	_ = tc.SetLinger(0)
	tc.Close()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		evs, err := p.Wait(100)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range evs {
			if ev.FD == fd && (ev.Hangup || ev.Readable) {
				return // RST surfaces as EPOLLERR|EPOLLHUP (or readable EOF)
			}
		}
	}
	t.Fatal("no hangup/readable event after RST")
}

func TestDoubleCloseSafe(t *testing.T) {
	p, err := NewPoller(8)
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.Close() // must not panic or double-close another fd
}

func TestPollerDefaultSize(t *testing.T) {
	p, err := NewPoller(0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if len(p.events) != 1024 {
		t.Fatalf("default event buffer = %d", len(p.events))
	}
}

func TestAcceptOnIdleListenerReturnsDone(t *testing.T) {
	lfd, _ := listen(t)
	_, done, err := Accept(0, lfd)
	if err != nil || !done {
		t.Fatalf("expected done=true, got done=%v err=%v", done, err)
	}
}

func TestWriteToClosedPeer(t *testing.T) {
	lfd, port := listen(t)
	client := dial(t, port)
	waitReadable(t, lfd)
	fd, _, err := Accept(0, lfd)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { CloseFD(0, fd) })
	tc := client.(*net.TCPConn)
	_ = tc.SetLinger(0)
	tc.Close()
	time.Sleep(20 * time.Millisecond)
	// First write may succeed (buffered); a subsequent one must error
	// with EPIPE/ECONNRESET rather than crash the process.
	var lastErr error
	for i := 0; i < 5; i++ {
		_, _, lastErr = Write(0, fd, []byte("data"))
		if lastErr != nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if lastErr == nil {
		t.Fatal("writes to reset peer never failed")
	}
	if lastErr != syscall.EPIPE && lastErr != syscall.ECONNRESET {
		t.Logf("note: got %v (acceptable on some kernels)", lastErr)
	}
}

// A loop that spins through Wait without ever parking in Go terms must
// still pass through the scheduler about once per yieldEvery (see there
// for what happens when it does not): no more often, because a yield is
// not free, and no less, because sysmon's patience is 10 ms.
func TestWaitYieldsAtItsCadence(t *testing.T) {
	p := newPoller(t)
	yields := 0
	yield = func() { yields++; runtime.Gosched() }
	defer func() { yield = runtime.Gosched }()
	const window = 100 * time.Millisecond
	start := time.Now()
	waits := 0
	for time.Since(start) < window {
		if _, err := p.Wait(0); err != nil {
			t.Fatal(err)
		}
		waits++
	}
	due := int(time.Since(start) / yieldEvery)
	if yields < due/4 || yields > due+1 { // a quarter: the test process may itself be descheduled
		t.Fatalf("%d yields in %d Waits over %d yield periods, want one per period", yields, waits, due)
	}
}
