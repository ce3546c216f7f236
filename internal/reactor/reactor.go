//go:build linux

// Package reactor is an explicit readiness-selection loop built directly
// on epoll(7) and non-blocking sockets via the syscall package — the Go
// equivalent of a Java NIO Selector. The Go runtime's own netpoller hides
// non-blocking I/O behind goroutines; the paper's contribution is the
// *explicit* event-driven architecture, so this package deliberately
// bypasses net.Conn and exposes readiness events and raw file
// descriptors to a single-threaded event loop.
//
// One Poller per reactor shard thread; the Wakeup pipe lets other
// threads (e.g. the acceptor handing over a new connection) interrupt a
// blocking Wait, exactly like Selector.wakeup().
//
// Every syscall helper takes a sysfault.Lane — the shard index of the
// calling event loop — so the fault seam's decision streams stay
// per-shard deterministic. Single-loop callers pass lane 0, the
// legacy stream.
package reactor

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"repro/internal/sysfault"
)

// Event is one readiness notification.
type Event struct {
	FD       int
	Readable bool
	Writable bool
	// Hangup reports EPOLLHUP/EPOLLERR: the peer closed or the socket
	// failed; the connection should be torn down after draining.
	Hangup bool
}

// Poller wraps one epoll instance plus a wakeup pipe.
type Poller struct {
	epfd   int
	wakeR  int
	wakeW  int
	events []syscall.EpollEvent
	// evbuf is the reusable Event scratch Wait returns a prefix of —
	// one allocation at construction instead of one per wait, which on
	// a busy loop is one per loop iteration. Sized to events, so
	// translation can never grow it.
	evbuf  []Event
	closed bool
	// lane is the fault-seam stream this poller's Waits are addressed
	// to — the shard index of the loop that owns it.
	lane sysfault.Lane
	// reg shadows the kernel's interest set under -tags invariants (a
	// zero-cost no-op otherwise) so the invariant layer can check it
	// against the reactor's connection table.
	reg regSet
	// lastYield is when the owning loop last passed through the Go
	// scheduler (see yieldEvery).
	lastYield time.Time
}

// yieldEvery bounds how long a reactor loop runs without passing through
// the Go scheduler. A loop that only ever parks in epoll_wait(2) stays
// the running goroutine of its P indefinitely: after 10 ms sysmon marks
// it overdue for preemption, and from then on takes the P away at every
// look that finds the loop inside a syscall — where a busy reactor spends
// most of its time — and, having found work, keeps looking every ~100 us.
// Measured under pipelined load on one CPU: 4 300 sysmon wakes/s at 6 %
// of the CPU, the loop re-acquiring its P through the scheduler lock
// several thousand times a second, a third of the wall time in batches
// slower than 1.5x the median, and the background GC worker never
// scheduled (every mark phase finished by assists alone; DESIGN.md
// section 15). A Gosched is ~0.1 us when nothing
// else is runnable, lets the GC worker and the process's other goroutines
// (date ticker, admin plane) run when something is, and keeps sysmon
// asleep (100 wakes/s).
const yieldEvery = time.Millisecond

// yield is runtime.Gosched; a variable so a test can count the calls.
var yield = runtime.Gosched

// NewPoller creates an epoll instance sized for n simultaneous events per
// Wait call (n <= 0 selects a default of 1024) on fault lane 0.
func NewPoller(n int) (*Poller, error) { return NewPollerLane(n, 0) }

// NewPollerLane is NewPoller with the owning shard's fault lane.
func NewPollerLane(n int, lane sysfault.Lane) (*Poller, error) {
	if n <= 0 {
		n = 1024
	}
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil, fmt.Errorf("reactor: epoll_create1: %w", err)
	}
	var pipeFDs [2]int
	if err := syscall.Pipe2(pipeFDs[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
		syscall.Close(epfd)
		return nil, fmt.Errorf("reactor: pipe2: %w", err)
	}
	p := &Poller{
		epfd:   epfd,
		wakeR:  pipeFDs[0],
		wakeW:  pipeFDs[1],
		events: make([]syscall.EpollEvent, n),
		evbuf:  make([]Event, 0, n),
		lane:   lane,
		reg:    newRegSet(),
	}
	if err := p.Add(p.wakeR, true, false); err != nil {
		p.Close()
		return nil, err
	}
	return p, nil
}

// mask asks for EPOLLRDHUP only alongside read interest: both are
// level-triggered, so a connection that has stopped reading (draining,
// or flushing a reply to a peer that already sent its FIN) would
// otherwise wake the loop on every Wait for a condition it will not
// consume. EPOLLHUP/EPOLLERR are reported regardless.
func mask(readable, writable bool) uint32 {
	var m uint32
	if readable {
		m |= syscall.EPOLLIN | syscall.EPOLLRDHUP
	}
	if writable {
		m |= syscall.EPOLLOUT
	}
	return m
}

// Add registers fd for the given interest set (level-triggered).
func (p *Poller) Add(fd int, readable, writable bool) error {
	ev := syscall.EpollEvent{Events: mask(readable, writable), Fd: int32(fd)}
	if err := syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_ADD, fd, &ev); err != nil {
		return fmt.Errorf("reactor: epoll_ctl add fd %d: %w", fd, err)
	}
	p.reg.add(fd)
	return nil
}

// Modify changes fd's interest set — the reactor's write-interest dance:
// enable EPOLLOUT only while a response has unsent bytes.
func (p *Poller) Modify(fd int, readable, writable bool) error {
	ev := syscall.EpollEvent{Events: mask(readable, writable), Fd: int32(fd)}
	if err := syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_MOD, fd, &ev); err != nil {
		return fmt.Errorf("reactor: epoll_ctl mod fd %d: %w", fd, err)
	}
	return nil
}

// Remove deregisters fd. Removing an fd that was already closed is
// harmless (the kernel removed it automatically).
func (p *Poller) Remove(fd int) {
	_ = syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_DEL, fd, nil)
	p.reg.del(fd)
}

// Forget is Remove for an fd the caller closes next: close(2) takes a
// descriptor out of every interest set it is in once no duplicate of it
// remains, and the reactors never dup a socket, so the epoll_ctl(DEL)
// in front of the close is a syscall for nothing. Only the invariant
// build's shadow of the interest set has anything to update.
func (p *Poller) Forget(fd int) { p.reg.del(fd) }

// HasInterest reports whether fd is in the poller's interest-set
// shadow. Meaningful only under -tags invariants (always false
// otherwise); it exists for the invariant layer's interest-set checks.
func (p *Poller) HasInterest(fd int) bool { return p.reg.has(fd) }

// InterestCount returns the size of the poller's interest-set shadow
// (including the wakeup pipe). Meaningful only under -tags invariants
// (always 0 otherwise).
func (p *Poller) InterestCount() int { return p.reg.size() }

// Wait blocks until at least one registered fd is ready, the timeout (in
// ms, -1 = forever) elapses, or Wakeup is called. Wakeup drains
// internally and produces no Event. The returned slice is backed by a
// buffer owned by the Poller and is overwritten by the next Wait on
// it; callers must finish with the events before waiting again (every
// reactor loop naturally does).
//
//nio:hot
func (p *Poller) Wait(timeoutMs int) ([]Event, error) {
	if time.Since(p.lastYield) > yieldEvery {
		yield()
		p.lastYield = time.Now()
	}
	n, err := sysfault.EpollWait(p.lane, p.epfd, p.events, timeoutMs)
	if err != nil {
		return nil, fmt.Errorf("reactor: epoll_wait: %w", err)
	}
	out := p.evbuf[:0]
	for i := 0; i < n; i++ {
		ev := p.events[i]
		fd := int(ev.Fd)
		if fd == p.wakeR {
			p.drainWake()
			continue
		}
		out = append(out, Event{
			FD:       fd,
			Readable: ev.Events&(syscall.EPOLLIN|syscall.EPOLLRDHUP) != 0,
			Writable: ev.Events&syscall.EPOLLOUT != 0,
			Hangup:   ev.Events&(syscall.EPOLLHUP|syscall.EPOLLERR) != 0,
		})
	}
	return out, nil
}

// Wakeup interrupts a concurrent Wait. Safe to call from any thread.
func (p *Poller) Wakeup() {
	var b [1]byte
	_, _ = syscall.Write(p.wakeW, b[:]) // EAGAIN means a wakeup is already pending
}

// drainWake empties the wakeup pipe. EAGAIN is the expected exit (the
// pipe is non-blocking and has been drained); EINTR is retried so a
// signal cannot leave stale wakeup bytes behind to spuriously interrupt
// the next Wait. The retry is an explicit classification rather than a
// retryEINTR closure: this runs inside every Wait, and a capturing
// closure would allocate per call.
//
//nio:hot
func (p *Poller) drainWake() {
	var buf [64]byte
	for {
		n, err := syscall.Read(p.wakeR, buf[:])
		if err == syscall.EINTR {
			continue // a signal is not a drained pipe
		}
		if err == syscall.EAGAIN {
			return // drained
		}
		if err != nil || n == 0 {
			return // pipe broken or closed; nothing left to drain
		}
	}
}

// Close releases the epoll instance and the wakeup pipe.
func (p *Poller) Close() {
	if p.closed {
		return
	}
	p.closed = true
	syscall.Close(p.epfd)
	syscall.Close(p.wakeR)
	syscall.Close(p.wakeW)
}

// ---------------------------------------------------------------------
// Socket helpers
// ---------------------------------------------------------------------

// soReusePort is SO_REUSEPORT, which the syscall package does not
// export on linux. Value from <asm-generic/socket.h>.
const soReusePort = 0xf

// Listen opens a non-blocking IPv4 listening socket on 127.0.0.1:port
// (port 0 picks a free port; the chosen port is returned).
func Listen(port, backlog int) (fd, boundPort int, err error) {
	return listenSock(port, backlog, false)
}

// ListenReusePort is Listen with SO_REUSEPORT set before bind, so N
// shards can each own a listening socket on the same port and the
// kernel hashes incoming connections across them — the accept-sharding
// path of the N-reactor architecture. Fails with the setsockopt error
// on kernels without SO_REUSEPORT (< 3.9); callers fall back to
// acceptor fan-out.
func ListenReusePort(port, backlog int) (fd, boundPort int, err error) {
	return listenSock(port, backlog, true)
}

func listenSock(port, backlog int, reusePort bool) (fd, boundPort int, err error) {
	fd, err = sysfault.Socket(0, syscall.AF_INET, syscall.SOCK_STREAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return -1, 0, fmt.Errorf("reactor: socket: %w", err)
	}
	if err = syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_REUSEADDR, 1); err != nil {
		_ = sysfault.Close(0, fd)
		return -1, 0, fmt.Errorf("reactor: SO_REUSEADDR: %w", err)
	}
	if reusePort {
		if err = syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, soReusePort, 1); err != nil {
			_ = sysfault.Close(0, fd)
			return -1, 0, fmt.Errorf("reactor: SO_REUSEPORT: %w", err)
		}
	}
	// Nagle off, once: the servers write complete responses, and on Linux
	// an accepted socket starts with its listener's TCP_NODELAY, so this
	// replaces a setsockopt(2) per accepted connection.
	if err = syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1); err != nil {
		_ = sysfault.Close(0, fd)
		return -1, 0, fmt.Errorf("reactor: TCP_NODELAY: %w", err)
	}
	sa := &syscall.SockaddrInet4{Port: port, Addr: [4]byte{127, 0, 0, 1}}
	if err = syscall.Bind(fd, sa); err != nil {
		_ = sysfault.Close(0, fd)
		return -1, 0, fmt.Errorf("reactor: bind: %w", err)
	}
	if err = syscall.Listen(fd, backlog); err != nil {
		_ = sysfault.Close(0, fd)
		return -1, 0, fmt.Errorf("reactor: listen: %w", err)
	}
	got, err := syscall.Getsockname(fd)
	if err != nil {
		_ = sysfault.Close(0, fd)
		return -1, 0, fmt.Errorf("reactor: getsockname: %w", err)
	}
	inet, ok := got.(*syscall.SockaddrInet4)
	if !ok {
		_ = sysfault.Close(0, fd)
		return -1, 0, fmt.Errorf("reactor: unexpected sockaddr %T", got)
	}
	return fd, inet.Port, nil
}

// DialTCP4 starts a non-blocking IPv4 connect to addr ("a.b.c.d:port").
// connected=false with a nil error means the connect is in flight
// (EINPROGRESS): register write interest and call ConnectResult when the
// socket signals writability. The fd is created non-blocking and
// close-on-exec, with Nagle disabled, exactly like an accepted socket —
// it is the upstream half of a proxy relay, and both halves must behave
// identically under the reactor.
func DialTCP4(lane sysfault.Lane, addr string) (fd int, connected bool, err error) {
	ip, port, err := parseIPv4Addr(addr)
	if err != nil {
		return -1, false, err
	}
	fd, err = sysfault.Socket(lane, syscall.AF_INET, syscall.SOCK_STREAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return -1, false, fmt.Errorf("reactor: socket: %w", err)
	}
	_ = syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1)
	sa := &syscall.SockaddrInet4{Port: port, Addr: ip}
	switch err = sysfault.Connect(lane, fd, sa); err {
	case nil:
		return fd, true, nil
	case syscall.EINPROGRESS:
		return fd, false, nil
	default:
		_ = sysfault.Close(lane, fd)
		return -1, false, fmt.Errorf("reactor: connect %s: %w", addr, err)
	}
}

// ConnectResult resolves an in-flight non-blocking connect once the
// socket has signalled writability: nil means the connection is
// established, anything else is the connect failure (SO_ERROR). The fd
// is NOT closed on failure — the caller owns it either way.
func ConnectResult(fd int) error {
	soerr, err := syscall.GetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_ERROR)
	if err != nil {
		return fmt.Errorf("reactor: getsockopt SO_ERROR: %w", err)
	}
	if soerr != 0 {
		return fmt.Errorf("reactor: connect: %w", syscall.Errno(soerr))
	}
	return nil
}

// parseIPv4Addr parses "a.b.c.d:port" without importing net (this
// package speaks raw sockaddrs only).
func parseIPv4Addr(addr string) (ip [4]byte, port int, err error) {
	colon := -1
	for i := len(addr) - 1; i >= 0; i-- {
		if addr[i] == ':' {
			colon = i
			break
		}
	}
	if colon <= 0 || colon == len(addr)-1 {
		return ip, 0, fmt.Errorf("reactor: address %q is not host:port", addr)
	}
	host, portStr := addr[:colon], addr[colon+1:]
	for i := 0; i < len(portStr); i++ {
		c := portStr[i]
		if c < '0' || c > '9' {
			return ip, 0, fmt.Errorf("reactor: bad port in %q", addr)
		}
		port = port*10 + int(c-'0')
		if port > 65535 {
			return ip, 0, fmt.Errorf("reactor: port out of range in %q", addr)
		}
	}
	oct, digits, idx := 0, 0, 0
	for i := 0; i <= len(host); i++ {
		if i == len(host) || host[i] == '.' {
			if digits == 0 || digits > 3 || oct > 255 || idx >= 4 {
				return ip, 0, fmt.Errorf("reactor: %q is not a dotted-quad IPv4 address", host)
			}
			ip[idx] = byte(oct)
			idx++
			oct, digits = 0, 0
			continue
		}
		c := host[i]
		if c < '0' || c > '9' {
			return ip, 0, fmt.Errorf("reactor: %q is not a dotted-quad IPv4 address", host)
		}
		oct = oct*10 + int(c-'0')
		digits++
	}
	if idx != 4 {
		return ip, 0, fmt.Errorf("reactor: %q is not a dotted-quad IPv4 address", host)
	}
	return ip, port, nil
}

// Accept accepts one pending connection from a non-blocking listener.
// done reports EAGAIN (nothing pending). The new socket is non-blocking
// and close-on-exec by accept4(2)'s flags and has Nagle off by
// inheritance from a listener made by Listen or ListenReusePort.
func Accept(lane sysfault.Lane, lfd int) (fd int, done bool, err error) {
	fd, err = sysfault.Accept4(lane, lfd, syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC)
	switch err {
	case nil:
		return fd, false, nil
	case syscall.EAGAIN:
		return -1, true, nil
	case syscall.ECONNABORTED:
		return -1, false, nil // transient; caller loops
	default:
		return -1, false, fmt.Errorf("reactor: accept4: %w", err)
	}
}

// Read performs one non-blocking read. n == 0 with eof=true is a clean
// peer close; again=true means no data available now. EINTR is retried
// internally, so err never reports an interrupted syscall.
//
//nio:hot
func Read(lane sysfault.Lane, fd int, buf []byte) (n int, eof, again bool, err error) {
	n, err = sysfault.Read(lane, fd, buf)
	switch {
	case err == syscall.EAGAIN:
		return 0, false, true, nil
	case err != nil:
		return 0, false, false, err
	case n == 0:
		return 0, true, false, nil
	default:
		return n, false, false, nil
	}
}

// Write performs one non-blocking write; again=true means the socket
// buffer is full (register write interest and come back later). EINTR
// is retried internally rather than surfaced as a spurious again, so
// write interest is never armed for a mere signal.
//
//nio:hot
func Write(lane sysfault.Lane, fd int, buf []byte) (n int, again bool, err error) {
	n, err = sysfault.Write(lane, fd, buf)
	switch err {
	case nil:
		return n, false, nil
	case syscall.EAGAIN:
		return 0, true, nil
	default:
		return 0, false, err
	}
}

// WriteMore is Write for a caller that has more output queued behind
// buf on the same socket: the bytes are sent with MSG_MORE, so the
// kernel coalesces them with the write that follows instead of pushing
// a short segment (and waking the peer) per call. Results mean exactly
// what Write's do. The caller must follow with a plain Write, a
// sendfile, or a close — or have write interest armed, so the loop
// comes back to do so.
//
//nio:hot
func WriteMore(lane sysfault.Lane, fd int, buf []byte) (n int, again bool, err error) {
	n, err = sysfault.WriteMore(lane, fd, buf)
	switch err {
	case nil:
		return n, false, nil
	case syscall.EAGAIN:
		return 0, true, nil
	default:
		return 0, false, err
	}
}

// Sendfile performs one non-blocking sendfile(2) of up to max bytes
// from srcFD (a regular file) at *off into the socket fd — the zero-copy
// response path. The kernel advances *off past whatever it sent, so the
// caller's offset is always the resume point; again=true means the
// socket buffer is full (register write interest and come back later).
// Because off is explicit, srcFD's file position is never touched and
// one shared descriptor can feed any number of concurrent responses.
// An interrupted call reports no progress and is simply retried: *off
// is untouched by a failing sendfile(2).
//
//nio:hot
func Sendfile(lane sysfault.Lane, fd, srcFD int, off *int64, max int) (n int, again bool, err error) {
	n, err = sysfault.Sendfile(lane, fd, srcFD, off, max)
	switch err {
	case nil:
		return n, false, nil
	case syscall.EAGAIN:
		return 0, true, nil
	default:
		return 0, false, fmt.Errorf("reactor: sendfile: %w", err)
	}
}

// CloseFD closes a socket.
func CloseFD(lane sysfault.Lane, fd int) { _ = sysfault.Close(lane, fd) }

// CloseWithReset sets SO_LINGER to zero and closes, so the peer receives
// an RST instead of an orderly FIN — how a server sheds a connection it
// no longer wants to account for (Apache's keep-alive recycling surfaces
// to clients exactly this way).
func CloseWithReset(lane sysfault.Lane, fd int) {
	_ = syscall.SetsockoptLinger(fd, syscall.SOL_SOCKET, syscall.SO_LINGER,
		&syscall.Linger{Onoff: 1, Linger: 0})
	_ = sysfault.Close(lane, fd)
}
