//go:build linux

package reactor

import (
	"syscall"
	"time"

	"repro/internal/httpwire"
	"repro/internal/sysfault"
)

// Accept-gate backoff bounds: exponential from 5 ms, capped at 250 ms,
// reset to zero by any successful accept.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = 250 * time.Millisecond
)

// NextAcceptBackoff is the gate's step: the pause to take after a
// resource-exhausted accept, given the pause taken after the previous
// one (zero after a successful accept).
func NextAcceptBackoff(prev time.Duration) time.Duration {
	if prev < acceptBackoffMin {
		return acceptBackoffMin
	}
	if prev *= 2; prev > acceptBackoffMax {
		return acceptBackoffMax
	}
	return prev
}

// OpenReserve opens the descriptor an accepting thread holds on
// /dev/null purely so that it can close it, to free one slot, when accept
// reports EMFILE (see Listener.recoverSlot). A failure to open it (-1)
// only disables the recovery, never the server.
func OpenReserve() int {
	for {
		fd, err := syscall.Open("/dev/null", syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
		switch err {
		case nil:
			return fd
		case syscall.EINTR:
			// a signal is not a reason to run without the reserve
		default:
			return -1
		}
	}
}

// Listener is the accept edge of an event loop: a listening socket armed
// on the loop's poller, with everything that keeps one bad accept from
// costing more than itself. Once armed it belongs to the loop that owns
// the poller; a dedicated acceptor thread is such a loop with nothing
// else on it.
//
// One accept4(2) per readiness event, not a drain to EAGAIN (nginx's
// default, multi_accept off): the listener is level-triggered, so a
// connection still queued reports again on the next Wait. A drain's last
// call only ever collects EAGAIN, which costs about three times a ready
// epoll_wait here (1.8 us against 0.6 us of server CPU), so draining
// pays only when more than about three connections are queued per wake —
// and a loop that takes one connection per iteration cannot be kept from
// its established connections by an accept storm.
//
// Resource exhaustion is not death, it closes the gate: the listener
// LEAVES the interest set — level-triggered and still readable, it would
// wake the loop hot otherwise — and WaitMs re-adds it when a capped
// exponential backoff has run out. The gate never sleeps: it trades
// accept latency for the CPU the loop needs to finish responses and free
// descriptors, so the loop keeps serving while admission is paused.
type Listener struct {
	p    *Poller // nil until Arm
	lane sysfault.Lane
	// refusal is the static 503: what the recovery answers the connection
	// it frees a slot for with, and Refuse's default.
	refusal *httpwire.Refusal
	//nio:loop-owned
	fd int
	//nio:loop-owned
	reserve int
	// gated is whether the listener is out of the interest set until the
	// clock passes until; backoff is the pause last taken.
	//nio:loop-owned
	gated bool
	//nio:loop-owned
	until time.Time
	//nio:loop-owned
	backoff time.Duration
}

// NewListener takes ownership of lfd, a bound listening socket. Nothing
// is accepted, and no reserve is held, until a loop arms it.
func NewListener(lane sysfault.Lane, lfd int, refusal *httpwire.Refusal) *Listener {
	return &Listener{lane: lane, refusal: refusal, fd: lfd, reserve: -1}
}

// Arm registers the listener on p and opens the reserve: the first act
// of the loop that will call Accept, on its thread or before it starts.
//
//nio:loop
func (l *Listener) Arm(p *Poller) error {
	if err := p.Add(l.fd, true, false); err != nil {
		return err
	}
	l.p, l.reserve = p, OpenReserve()
	return nil
}

// FD is the descriptor to match readiness events against, -1 once closed.
//
//nio:loop
func (l *Listener) FD() int { return l.fd }

// Gated reports whether the listener is waiting out a backoff.
//
//nio:loop
func (l *Listener) Gated() bool { return l.gated }

// AcceptResult is what one Accept did: FD is the new connection — non-
// blocking, close-on-exec, Nagle off by inheritance — or -1 when there
// is none, and the rest is for the caller's counters.
type AcceptResult struct {
	FD        int
	Exhausted bool // EMFILE/ENFILE: the reserve recovery ran
	Refused   bool // ... and answered one queued connection with the refusal
	Gated     bool // the gate closed for one more backoff
}

// Accept takes at most one connection off the listener, in answer to one
// readiness event. now is the loop's clock, consulted only when the gate
// closes. What accept4 reports is classified here and nowhere else.
//
//nio:loop
func (l *Listener) Accept(now time.Time) AcceptResult {
	fd, err := sysfault.Accept4(l.lane, l.fd, syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC)
	switch err {
	case nil:
		l.backoff = 0
		return AcceptResult{FD: fd}
	case syscall.EAGAIN, syscall.ECONNABORTED:
		// Nothing pending, or the peer gave up while queued.
	case syscall.ENETDOWN, syscall.EPROTO, syscall.ENOPROTOOPT, syscall.EHOSTDOWN, syscall.ENONET,
		syscall.EHOSTUNREACH, syscall.EOPNOTSUPP, syscall.ENETUNREACH, syscall.EPERM:
		// An error that was pending on the new connection, delivered
		// through accept — accept(2) says treat these like EAGAIN — or
		// Linux's firewall refusing it: that connection's loss, never the
		// listener's.
	case syscall.EMFILE, syscall.ENFILE:
		refused := l.recoverSlot()
		l.gate(now)
		return AcceptResult{FD: -1, Exhausted: true, Refused: refused, Gated: true}
	case syscall.ENOBUFS, syscall.ENOMEM:
		// Kernel memory pressure: nothing to free on our side, just pace
		// the retries.
		l.gate(now)
		return AcceptResult{FD: -1, Gated: true}
	default:
		// The listener is broken: drop it (FD turns -1). The loop keeps
		// serving what is open, and its siblings keep accepting.
		l.Close()
	}
	return AcceptResult{FD: -1}
}

// Refuse answers fd, an accepted connection that will not be served,
// with resp — nil for the static refusal — best effort, and closes it.
// The socket is fresh, so the non-blocking write of the short head
// virtually always lands in the empty send buffer.
func (l *Listener) Refuse(fd int, resp []byte) {
	if resp == nil {
		resp = l.refusal.Bytes()
	}
	_, _, _ = Write(l.lane, fd, resp)
	CloseFD(l.lane, fd)
}

// recoverSlot is the reserve dance: close the reserve to free one slot,
// accept the connection the kernel is holding, answer it 503 +
// Retry-After so the client backs off instead of timing out in silence,
// close it, and re-open the reserve. Without this the pending connection
// would sit in the accept queue until a descriptor came free by chance.
// It reports whether a connection was refused that way; without a
// reserve there is nothing to do.
func (l *Listener) recoverSlot() bool {
	if l.reserve < 0 {
		return false
	}
	CloseFD(l.lane, l.reserve)
	fd, _, _ := Accept(l.lane, l.fd)
	if fd >= 0 {
		l.Refuse(fd, nil)
	}
	l.reserve = OpenReserve()
	return fd >= 0
}

// gate closes the gate for the next backoff, counted from now.
func (l *Listener) gate(now time.Time) {
	l.backoff = NextAcceptBackoff(l.backoff)
	l.until = now.Add(l.backoff)
	if !l.gated {
		l.gated = true
		l.p.Remove(l.fd)
	}
}

// WaitMs is the gate's step in the loop. Given the timeout (ms, -1 =
// forever) the loop is about to Wait with, it re-arms the listener if
// the backoff has run out by now, and otherwise returns the timeout
// shortened to the rest of it. An open gate costs the one branch.
//
//nio:loop
func (l *Listener) WaitMs(now time.Time, ms int) int {
	if !l.gated {
		return ms
	}
	rest := l.until.Sub(now)
	if rest <= 0 {
		l.gated = false
		if err := l.p.Add(l.fd, true, false); err != nil {
			l.Close()
		}
		return ms
	}
	if g := int(rest/time.Millisecond) + 1; ms < 0 || g < ms {
		return g
	}
	return ms
}

// Close stops accepting: the listener leaves the interest set and is
// closed, and the reserve with it. Safe to repeat, and on a listener
// never armed; on an armed one it must run before the poller is closed.
//
//nio:loop
func (l *Listener) Close() {
	if l.fd >= 0 {
		if l.p != nil && !l.gated {
			l.p.Remove(l.fd)
		}
		CloseFD(l.lane, l.fd)
		l.fd = -1
	}
	l.gated = false
	if l.reserve >= 0 {
		CloseFD(l.lane, l.reserve)
		l.reserve = -1
	}
}
