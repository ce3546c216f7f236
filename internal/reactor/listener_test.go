//go:build linux

package reactor

import (
	"bufio"
	"io"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/httpwire"
	"repro/internal/sysfault"
)

// The Listener tests run in virtual time: the gate is driven by the now
// the caller passes, so nothing here sleeps and every assertion is a
// count, an ordering or a set membership.

const testLane = sysfault.Lane(7)

var epoch = time.Unix(1_000_000, 0)

// injectAccept arms the fault seam so that accept4 fails with errno on
// every call (count <= 0) or on the next count calls.
func injectAccept(t *testing.T, errno syscall.Errno, count int) {
	t.Helper()
	sysfault.Install(sysfault.New(1, sysfault.Rule{Site: sysfault.SiteAccept, Errno: errno, Prob: 1, Count: count}))
	t.Cleanup(sysfault.Uninstall)
}

// armedListener is a Listener armed on its own poller.
func armedListener(t *testing.T) (l *Listener, p *Poller, port int) {
	t.Helper()
	p = newPoller(t)
	lfd, port, err := Listen(0, 128)
	if err != nil {
		t.Fatal(err)
	}
	l = NewListener(testLane, lfd, httpwire.NewRefusal(1, ""))
	t.Cleanup(l.Close) // runs before the poller's
	if err := l.Arm(p); err != nil {
		t.Fatal(err)
	}
	return l, p, port
}

// listenerReady waits for the listener's readiness event on p.
func listenerReady(t *testing.T, p *Poller, l *Listener) {
	t.Helper()
	evs, err := p.Wait(2000)
	if err != nil || len(evs) != 1 || evs[0].FD != l.FD() || !evs[0].Readable {
		t.Fatalf("Wait = %+v, %v; want the listener (fd %d) readable", evs, err, l.FD())
	}
}

// shadowed reports whether p's interest-set shadow is real (-tags
// invariants): it then already holds the wakeup pipe.
func shadowed(p *Poller) bool { return p.InterestCount() > 0 }

func TestAcceptBackoffSequence(t *testing.T) {
	l, p, port := armedListener(t)
	injectAccept(t, syscall.EMFILE, 0) // the recovery's own accept fails too
	want := []int{5, 10, 20, 40, 80, 160, 250, 250}
	for i, ms := range want {
		r := l.Accept(epoch)
		if r != (AcceptResult{FD: -1, Exhausted: true, Gated: true}) {
			t.Fatalf("accept %d under EMFILE = %+v", i, r)
		}
		if got := l.WaitMs(epoch, -1); got != ms+1 {
			t.Fatalf("backoff %d: gate asks for a %d ms wait, want %d", i, got, ms+1)
		}
	}
	// A nearer deadline of the loop's own wins, a farther one does not.
	if got := l.WaitMs(epoch, 3); got != 3 {
		t.Errorf("WaitMs(3) while gated for 250 ms = %d", got)
	}
	if got := l.WaitMs(epoch, 1000); got != 251 {
		t.Errorf("WaitMs(1000) while gated for 250 ms = %d, want 251", got)
	}
	// Kernel memory pressure gates without a recovery.
	injectAccept(t, syscall.ENOBUFS, 0)
	if r := l.Accept(epoch); r != (AcceptResult{FD: -1, Gated: true}) {
		t.Fatalf("accept under ENOBUFS = %+v", r)
	}

	// One successful accept resets the sequence.
	sysfault.Uninstall()
	dial(t, port)
	later := epoch.Add(time.Second)
	if got := l.WaitMs(later, -1); got != -1 || l.Gated() {
		t.Fatalf("WaitMs after the backoff ran out = %d, gated %v; want -1 and re-armed", got, l.Gated())
	}
	listenerReady(t, p, l)
	r := l.Accept(later)
	if r.FD < 0 || r.Exhausted || r.Refused || r.Gated {
		t.Fatalf("accept after re-arm = %+v, want a connection", r)
	}
	CloseFD(testLane, r.FD)
	injectAccept(t, syscall.ENFILE, 0)
	l.Accept(later)
	if got := l.WaitMs(later, -1); got != 6 {
		t.Fatalf("first backoff after a successful accept asks for %d ms, want 6", got)
	}
}

func TestGateLeavesAndRejoinsInterestSet(t *testing.T) {
	l, p, port := armedListener(t)
	lfd := l.FD()
	first := dial(t, port)
	listenerReady(t, p, l)
	injectAccept(t, syscall.EMFILE, 1) // the recovery's accept goes through
	r := l.Accept(epoch)
	if r != (AcceptResult{FD: -1, Exhausted: true, Refused: true, Gated: true}) {
		t.Fatalf("accept under one EMFILE = %+v", r)
	}
	status, err := bufio.NewReader(first).ReadString('\n')
	if err != nil || !strings.HasPrefix(status, "HTTP/1.1 503") {
		t.Fatalf("the connection the recovery drained read %q, %v; want a 503", status, err)
	}
	if l.reserve < 0 {
		t.Fatal("the reserve was not re-opened after the recovery")
	}

	// Gated: out of the interest set, so a queued connection wakes no one.
	dial(t, port)
	waitReadable(t, lfd)
	if !l.Gated() {
		t.Fatal("not gated after EMFILE")
	}
	if shadowed(p) && (p.HasInterest(lfd) || p.InterestCount() != 1) {
		t.Fatalf("gated listener still in the interest-set shadow (%d fds)", p.InterestCount())
	}
	if evs, err := p.Wait(0); err != nil || len(evs) != 0 {
		t.Fatalf("events while gated: %+v, %v", evs, err)
	}
	if got := l.WaitMs(epoch.Add(4*time.Millisecond), -1); got != 2 || !l.Gated() {
		t.Fatalf("1 ms before the backoff runs out WaitMs = %d, gated %v; want 2, still gated", got, l.Gated())
	}

	// Re-armed: back in the set, and the queued connection reports.
	if got := l.WaitMs(epoch.Add(5*time.Millisecond), -1); got != -1 || l.Gated() {
		t.Fatalf("when the backoff has run out WaitMs = %d, gated %v; want -1, re-armed", got, l.Gated())
	}
	if shadowed(p) && (!p.HasInterest(lfd) || p.InterestCount() != 2) {
		t.Fatalf("re-armed listener missing from the interest-set shadow (%d fds)", p.InterestCount())
	}
	listenerReady(t, p, l)
	if r := l.Accept(epoch); r.FD < 0 {
		t.Fatalf("accept after re-arm = %+v", r)
	} else {
		CloseFD(testLane, r.FD)
	}
}

func TestRecoveryWithoutReserveIsNoOp(t *testing.T) {
	l, p, port := armedListener(t)
	CloseFD(testLane, l.reserve)
	l.reserve = -1 // as if /dev/null could not be opened
	client := dial(t, port)
	listenerReady(t, p, l)
	injectAccept(t, syscall.EMFILE, 1)
	if r := l.Accept(epoch); r != (AcceptResult{FD: -1, Exhausted: true, Gated: true}) {
		t.Fatalf("accept under EMFILE with no reserve = %+v", r)
	}
	if l.reserve != -1 {
		t.Fatalf("reserve = %d, want it left unavailable", l.reserve)
	}
	// The connection was not drained: it is still queued, and served
	// once the gate re-opens.
	l.WaitMs(epoch.Add(time.Second), -1)
	listenerReady(t, p, l)
	r := l.Accept(epoch)
	if r.FD < 0 {
		t.Fatalf("accept after the gate = %+v", r)
	}
	CloseFD(testLane, r.FD)
	client.Close()
}

func TestAcceptErrnoPolicy(t *testing.T) {
	transient := []syscall.Errno{
		syscall.EAGAIN, syscall.ECONNABORTED,
		syscall.ENETDOWN, syscall.EPROTO, syscall.ENOPROTOOPT, syscall.EHOSTDOWN, syscall.ENONET,
		syscall.EHOSTUNREACH, syscall.EOPNOTSUPP, syscall.ENETUNREACH, syscall.EPERM,
	}
	l, p, port := armedListener(t)
	for _, errno := range transient {
		dial(t, port)
		listenerReady(t, p, l)
		injectAccept(t, errno, 1)
		if r := l.Accept(epoch); r != (AcceptResult{FD: -1}) {
			t.Fatalf("%v: accept = %+v, want nothing to count", errno, r)
		}
		if l.FD() < 0 || l.Gated() {
			t.Fatalf("%v cost the listener (fd %d, gated %v)", errno, l.FD(), l.Gated())
		}
		// Level-triggered: the connection the error did not consume
		// reports again.
		listenerReady(t, p, l)
		r := l.Accept(epoch)
		if r.FD < 0 {
			t.Fatalf("accept after %v = %+v", errno, r)
		}
		CloseFD(testLane, r.FD)
	}
	for _, errno := range []syscall.Errno{syscall.EBADF, syscall.EINVAL, syscall.ENOTSOCK} {
		l, p, _ := armedListener(t)
		lfd := l.FD()
		injectAccept(t, errno, 1)
		if r := l.Accept(epoch); r != (AcceptResult{FD: -1}) {
			t.Fatalf("%v: accept = %+v", errno, r)
		}
		if l.FD() != -1 || l.Gated() || l.reserve != -1 {
			t.Fatalf("%v: listener not dropped (fd %d, gated %v, reserve %d)", errno, l.FD(), l.Gated(), l.reserve)
		}
		if shadowed(p) && (p.HasInterest(lfd) || p.InterestCount() != 1) {
			t.Fatalf("%v: dropped listener still in the interest-set shadow", errno)
		}
		if got := l.WaitMs(epoch, -1); got != -1 {
			t.Fatalf("%v: a dropped listener shortens the wait to %d", errno, got)
		}
	}
}

func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

func TestListenerCloseReturnsEveryDescriptor(t *testing.T) {
	p := newPoller(t)
	paths := map[string]func(*Listener){
		"never armed": func(l *Listener) {},
		"armed": func(l *Listener) {
			if err := l.Arm(p); err != nil {
				t.Fatal(err)
			}
		},
		"gated": func(l *Listener) {
			if err := l.Arm(p); err != nil {
				t.Fatal(err)
			}
			injectAccept(t, syscall.EMFILE, 0)
			l.Accept(epoch)
			sysfault.Uninstall()
		},
		"dropped": func(l *Listener) {
			if err := l.Arm(p); err != nil {
				t.Fatal(err)
			}
			injectAccept(t, syscall.EBADF, 1)
			l.Accept(epoch)
			sysfault.Uninstall()
		},
	}
	for name, run := range paths {
		base, interest := openFDs(t), p.InterestCount()
		lfd, _, err := Listen(0, 16)
		if err != nil {
			t.Fatal(err)
		}
		l := NewListener(testLane, lfd, httpwire.NewRefusal(1, ""))
		run(l)
		l.Close()
		l.Close() // safe to repeat
		if got := openFDs(t); got != base {
			t.Errorf("%s: %d descriptors open after Close, %d before the listener existed", name, got, base)
		}
		if got := p.InterestCount(); got != interest {
			t.Errorf("%s: interest-set shadow holds %d fds after Close, want %d", name, got, interest)
		}
		if l.FD() != -1 || l.Gated() {
			t.Errorf("%s: closed listener reports fd %d, gated %v", name, l.FD(), l.Gated())
		}
	}
}

// A refusal reaches the client whole and the connection closes behind
// it; a caller's own bytes replace the static ones.
func TestRefuse(t *testing.T) {
	l, p, port := armedListener(t)
	for resp, marks := range map[string][]string{
		"": {"HTTP/1.1 503 ", "\r\nRetry-After: 1\r\n", "\r\nConnection: close\r\n\r\n"},
		string(httpwire.AppendRefusal(nil, 7, "1.1 test")): {"\r\nRetry-After: 7\r\n", "\r\nVia: 1.1 test\r\n"},
	} {
		client := dial(t, port)
		listenerReady(t, p, l)
		r := l.Accept(epoch)
		if r.FD < 0 {
			t.Fatalf("accept = %+v", r)
		}
		if resp == "" {
			l.Refuse(r.FD, nil)
		} else {
			l.Refuse(r.FD, []byte(resp))
		}
		got, err := io.ReadAll(client) // to the close
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range marks {
			if !strings.Contains(string(got), m) {
				t.Errorf("refused client read %q, missing %q", got, m)
			}
		}
	}
}
