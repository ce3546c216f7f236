// Package mtserver is the live baseline the paper compares against: a
// multithreaded web server in the style of Apache 2's worker MPM. A
// bounded pool of worker threads each handles one connection at a time
// with blocking reads and writes, and a keep-alive idle timeout
// disconnects inactive clients to recycle threads — the behaviour the
// paper identifies as the source of httpd2's connection-reset errors.
//
// Threads are goroutines here; the architectural property under study —
// one connection bound to one execution context, blocking I/O, a hard
// pool limit — is preserved exactly: when all workers are busy, accepted
// connections wait and new ones pile up in the kernel backlog.
package mtserver

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/docroot"
	"repro/internal/httpwire"
	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/overload"
	"repro/internal/reactor"
	"repro/internal/sysfault"
)

// Config parameterizes the thread-pool server.
type Config struct {
	// Port to listen on (0 picks a free port).
	Port int
	// Threads is the worker-pool size (the paper sweeps 128–6000).
	Threads int
	// KeepAlive is the idle timeout after which the server closes a
	// connection (the paper configures 15 s). 0 disables the timeout:
	// reads and writes then carry no deadline at all — the ablation
	// that shows the reset errors come from the recycling policy.
	KeepAlive time.Duration
	// ReadBuf is the per-thread read buffer size.
	ReadBuf int
	// Store serves the content from memory. Required unless Docroot is
	// set.
	Store core.Store
	// Docroot, when non-nil, serves real files from disk through the
	// bounded content cache instead of Store: cache hits are written
	// from memory, misses are delivered with blocking sendfile(2) (the
	// thread parks until the kernel drains the file into the socket),
	// and conditional GETs are answered with 304.
	Docroot *docroot.Root
	// MaxConns, when positive, caps connections the server will hold
	// (serving plus queued for a free thread): excess accepts get an
	// immediate 503 + close (counted in Stats.Shed) instead of piling
	// into the handoff queue and kernel backlog. 0 = unlimited.
	MaxConns int
	// Admission, when non-nil, is the adaptive overload controller: it
	// is consulted on every accept (before the MaxConns ceiling), and fed
	// each admitted connection's accept-to-first-response latency — which
	// for a saturated pool is dominated by the handoff wait, exactly the
	// queueing delay a static thread cap cannot see. Refused connections
	// are shed with 503 + Retry-After + close.
	Admission *overload.Controller
	// Watchdog, when non-nil, monitors every pool thread for wedged
	// handlers: each worker registers a heartbeat and brackets handler
	// work with Begin/End (keep-alive reads are legitimate parks and are
	// not bracketed), so a hung handler is flagged within roughly one
	// watchdog interval. Caller-owned; not stopped by Stop.
	Watchdog *overload.Watchdog
	// HandlerFault, when non-nil, injects faults into request handling
	// (see core.Fault) — the hook the robustness tests drive panics and
	// wedges through. nil in production.
	HandlerFault core.FaultFunc
	// Obs, when non-nil, is the live observability plane: connection
	// lifecycles are traced into its ring and the phase latencies feed
	// its histograms, read live by the admin endpoint. On this
	// architecture the handler phase includes the blocking response
	// write — that IS the pool thread's occupancy — while the write
	// phase isolates each write(2)/sendfile(2) call. Every recording
	// site is behind this nil check; nil costs nothing.
	Obs *obs.Plane
}

// DefaultConfig returns the paper's best configuration (scaled pool).
func DefaultConfig(store core.Store) Config {
	return Config{
		Threads:   64,
		KeepAlive: 15 * time.Second,
		ReadBuf:   16 << 10,
		Store:     store,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Threads <= 0:
		return fmt.Errorf("mtserver: Threads must be positive, got %d", c.Threads)
	case c.KeepAlive < 0:
		return fmt.Errorf("mtserver: negative KeepAlive %v", c.KeepAlive)
	case c.MaxConns < 0:
		return fmt.Errorf("mtserver: negative MaxConns %d", c.MaxConns)
	case c.ReadBuf < 256:
		return fmt.Errorf("mtserver: ReadBuf must be at least 256, got %d", c.ReadBuf)
	case c.Store == nil && c.Docroot == nil:
		return fmt.Errorf("mtserver: a Store or a Docroot is required")
	case c.Port < 0 || c.Port > 65535:
		return fmt.Errorf("mtserver: invalid port %d", c.Port)
	}
	return nil
}

// Stats are the server's counters.
type Stats struct {
	Accepted   int64
	Replies    int64
	BytesOut   int64
	IdleCloses int64
	BadRequest int64
	ConnsOpen  int64
	// Shed counts connections refused with a 503 by MaxConns admission
	// control.
	Shed int64
	// NotModified counts 304 replies to conditional GETs (docroot only).
	NotModified int64
	// SendfileBytes counts body bytes delivered via sendfile(2);
	// BytesOut includes them.
	SendfileBytes int64
	// HandlerPanics counts handler panics that were isolated to their
	// connection (best-effort 500 + close) instead of killing the
	// process.
	HandlerPanics int64
	// AcceptEMFILE counts accept attempts refused by the kernel for
	// descriptor exhaustion (EMFILE/ENFILE) and absorbed by the
	// reserve-descriptor recovery instead of hot-spinning the acceptor.
	AcceptEMFILE int64
	// AcceptBackoffs counts backoff waits taken by the accept gate
	// after a failed accept (the replacement for retrying immediately
	// on an error that will not have gone away).
	AcceptBackoffs int64
	// ShortWrites counts blocking writes that delivered only part of
	// the response and were resumed from the cut — the response bytes
	// stay exact.
	ShortWrites int64
	// SendfileFallbacks counts sendfile(2) failures recovered by
	// buffered delivery from the same offset (docroot path).
	SendfileFallbacks int64
}

// Server is the live thread-pool web server.
type Server struct {
	cfg Config
	ln  net.Listener
	// tcpLn is the unwrapped listener underneath ln, kept for deadline
	// control during fd-exhaustion recovery.
	tcpLn net.Listener

	// handoff carries accepted connections (stamped with their accept
	// time, so first-response latency includes the wait for a free
	// thread) to worker threads. It is unbuffered: when every thread is
	// busy the acceptor blocks, exactly like Apache with a saturated
	// pool — further connections queue in the kernel's accept backlog.
	handoff chan handoffConn

	wg        sync.WaitGroup
	stopping  chan struct{}
	stopOnce  sync.Once
	draining  chan struct{}
	drainOnce sync.Once

	mu     sync.Mutex
	active map[net.Conn]struct{}

	accepted      atomic.Int64
	replies       atomic.Int64
	bytesOut      atomic.Int64
	idleCloses    atomic.Int64
	badRequest    atomic.Int64
	connsOpen     atomic.Int64
	shed          atomic.Int64
	notModified   atomic.Int64
	sendfileBytes atomic.Int64
	handlerPanics atomic.Int64

	acceptEMFILE      atomic.Int64
	acceptBackoffs    atomic.Int64
	shortWrites       atomic.Int64
	sendfileFallbacks atomic.Int64
	// inflight counts accepted-and-admitted connections from accept to
	// handler exit (ConnsOpen only counts those a thread has picked up);
	// MaxConns admission and Drain completion are judged against it.
	inflight atomic.Int64
}

// NewServer validates the configuration and binds the listener.
func NewServer(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rawLn, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", cfg.Port))
	if err != nil {
		return nil, fmt.Errorf("mtserver: listen: %w", err)
	}
	// The listener is always wrapped in the sysfault seam: with no
	// injector installed the wrapper is one atomic load per accept and
	// hands back UNWRAPPED connections, so the steady-state data path
	// is untouched; with one installed, accepts and per-connection
	// reads/writes draw from the seeded fault schedule.
	ln := sysfault.WrapListener(rawLn)
	// With an admission controller the handoff queue must be visible, not
	// hidden: an unbuffered handoff blocks the acceptor once the pool is
	// saturated, which throttles accepts to the service rate — the token
	// bucket then never refuses anyone and the real queue builds in the
	// kernel backlog, where neither the controller's clock nor its Admit
	// gate can see it. Buffering the handoff (a SEDA-style bounded stage
	// queue) keeps the acceptor accepting at the arrival rate, so excess
	// arrivals meet Admit() and admitted connections' queue wait lands in
	// the accept-to-first-response latency the AIMD loop steers by.
	depth := 0
	if cfg.Admission != nil {
		depth = admissionQueueDepth
	}
	return &Server{
		cfg:      cfg,
		ln:       ln,
		tcpLn:    rawLn,
		handoff:  make(chan handoffConn, depth),
		stopping: make(chan struct{}),
		draining: make(chan struct{}),
		active:   make(map[net.Conn]struct{}),
	}, nil
}

// admissionQueueDepth bounds the visible accept queue used when an
// admission controller is configured. It is a backstop, not a policy
// knob: the controller sheds load long before the queue fills.
const admissionQueueDepth = 1024

// handoffConn is one accepted connection in flight to a worker.
type handoffConn struct {
	conn net.Conn
	at   time.Time // accept time; the controller's latency clock starts here
}

// connState is per-connection bookkeeping threaded through the serve
// path: whether the accept-to-first-response latency has been reported
// to the admission controller yet, plus the observability-plane state
// (only maintained when Config.Obs is set).
type connState struct {
	acceptedAt time.Time
	observed   bool
	// id is the plane-assigned connection id; reqStart and handlerStart
	// are the phase clocks; firstByte flips once the first response
	// byte has been traced.
	id           uint64
	reqStart     time.Time
	handlerStart time.Time
	firstByte    bool
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Port returns the bound port.
func (s *Server) Port() int { return s.ln.Addr().(*net.TCPAddr).Port }

// Stats returns a snapshot of the counters.
func (s *Server) Stats() Stats {
	return Stats{
		Accepted:   s.accepted.Load(),
		Replies:    s.replies.Load(),
		BytesOut:   s.bytesOut.Load(),
		IdleCloses: s.idleCloses.Load(),
		BadRequest: s.badRequest.Load(),
		ConnsOpen:  s.connsOpen.Load(),
		Shed:       s.shed.Load(),

		NotModified:   s.notModified.Load(),
		SendfileBytes: s.sendfileBytes.Load(),
		HandlerPanics: s.handlerPanics.Load(),

		AcceptEMFILE:      s.acceptEMFILE.Load(),
		AcceptBackoffs:    s.acceptBackoffs.Load(),
		ShortWrites:       s.shortWrites.Load(),
		SendfileFallbacks: s.sendfileFallbacks.Load(),
	}
}

// Start launches the worker pool and the acceptor.
func (s *Server) Start() error {
	for i := 0; i < s.cfg.Threads; i++ {
		s.wg.Add(1)
		go s.workerLoop(i)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

// Stop closes the listener and all active connections, then waits for
// every thread to exit.
func (s *Server) Stop() {
	s.stopOnce.Do(func() {
		close(s.stopping)
		s.ln.Close()
		s.mu.Lock()
		for c := range s.active {
			c.Close()
		}
		s.mu.Unlock()
	})
	s.wg.Wait()
	// Connections still queued in a buffered handoff were never picked up
	// by a worker; close them so their fds do not outlive the server.
	for {
		select {
		case h := <-s.handoff:
			h.conn.Close()
			s.inflight.Add(-1)
		default:
			return
		}
	}
}

// Drain gracefully shuts the server down: it stops accepting, wakes
// threads parked in keep-alive reads (their connections close cleanly,
// with no RST and no idle-close accounting), lets responses already
// being served finish, and then stops. It reports whether every
// connection finished before the timeout; on false, Stop cut off the
// stragglers.
func (s *Server) Drain(timeout time.Duration) bool {
	s.drainOnce.Do(func() {
		close(s.draining)
		s.ln.Close()
		// Wake every thread blocked in a keep-alive read; handleConn
		// sees the draining signal and exits instead of idling on.
		s.mu.Lock()
		for c := range s.active {
			_ = c.SetReadDeadline(time.Now())
		}
		s.mu.Unlock()
	})
	drained := false
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if s.inflight.Load() == 0 {
			drained = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.Stop()
	return drained
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	// The fd-exhaustion reserve and the static refusal are acceptor-owned
	// (see recoverFDExhaustion).
	reserve := reactor.OpenReserve()
	defer func() {
		if reserve >= 0 {
			_ = syscall.Close(reserve)
		}
	}()
	refusal := httpwire.NewRefusal(shedRetryAfterSec, "")
	backoff := time.Duration(0)
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			select {
			case <-s.stopping:
				return
			default:
			}
			if errors.Is(err, syscall.EMFILE) || errors.Is(err, syscall.ENFILE) {
				s.acceptEMFILE.Add(1)
				s.recoverFDExhaustion(&reserve, refusal)
			}
			// Whatever the failure, retrying instantly would spin a hot
			// loop against a condition that has not changed; pace the
			// retries with the reactor's capped exponential backoff instead.
			backoff = reactor.NextAcceptBackoff(backoff)
			s.acceptBackoffs.Add(1)
			select {
			case <-s.stopping:
				return
			case <-s.draining:
				return
			case <-time.After(backoff):
			}
			continue
		}
		backoff = 0
		s.accepted.Add(1)
		// Adaptive admission first: the controller's token bucket paces
		// accepts against its latency target. Shed clients are told when
		// to come back.
		if ac := s.cfg.Admission; ac != nil && !ac.Admit() {
			s.shedConn(conn, httpwire.AppendRefusal(nil, ac.RetryAfterSeconds(), ""))
			continue
		}
		// MaxConns stays as the hard ceiling above the controller: past
		// it the connection is answered with an immediate 503 and closed
		// instead of joining the handoff queue — bounded degradation
		// instead of an unbounded accept pile-up.
		if mc := s.cfg.MaxConns; mc > 0 && s.inflight.Load() >= int64(mc) {
			s.shedConn(conn, refusal.Bytes())
			continue
		}
		s.inflight.Add(1)
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.SetNoDelay(true)
		}
		h := handoffConn{conn: conn, at: time.Now()}
		select {
		case s.handoff <- h: // blocks while the pool is saturated
		case <-s.draining:
			conn.Close()
			s.inflight.Add(-1)
			return
		case <-s.stopping:
			conn.Close()
			s.inflight.Add(-1)
			return
		}
	}
}

// shedRetryAfterSec is the Retry-After advertised on sheds not governed
// by an admission controller (the static MaxConns ceiling).
const shedRetryAfterSec = 1

// shedConn counts an over-limit accept and answers it with a best-effort
// refusal (httpwire.AppendRefusal) and a close.
func (s *Server) shedConn(conn net.Conn, resp []byte) {
	s.shed.Add(1)
	if pl := s.cfg.Obs; pl != nil {
		pl.Record(0, obs.Shed, 0)
	}
	_ = conn.SetWriteDeadline(time.Now().Add(time.Second))
	_, _ = conn.Write(resp)
	conn.Close()
}

// docrootPressureEvictions is how many cached entries (and so file
// descriptors) the acceptor asks the docroot to give back per EMFILE
// event.
const docrootPressureEvictions = 8

// recoverFDExhaustion is the reserve-descriptor dance on the blocking
// accept path: shrink the docroot cache (cached entries pin fds),
// close the reserve to free one slot, accept the connection the
// kernel is holding — under a short deadline, so a vanished client
// cannot park the acceptor — answer it 503 + Retry-After, close it,
// and re-open the reserve.
func (s *Server) recoverFDExhaustion(reserve *int, refusal *httpwire.Refusal) {
	if dr := s.cfg.Docroot; dr != nil {
		dr.ShedFDs(docrootPressureEvictions)
	}
	if *reserve < 0 {
		return
	}
	_ = syscall.Close(*reserve)
	*reserve = -1
	type deadliner interface{ SetDeadline(time.Time) error }
	if d, ok := s.tcpLn.(deadliner); ok {
		_ = d.SetDeadline(time.Now().Add(50 * time.Millisecond))
		if conn, err := s.ln.Accept(); err == nil {
			s.shedConn(conn, refusal.Bytes())
		}
		_ = d.SetDeadline(time.Time{})
	}
	*reserve = reactor.OpenReserve()
}

func (s *Server) track(c net.Conn, on bool) {
	s.mu.Lock()
	if on {
		s.active[c] = struct{}{}
	} else {
		delete(s.active, c)
	}
	s.mu.Unlock()
}

func (s *Server) workerLoop(idx int) {
	defer s.wg.Done()
	buf := make([]byte, s.cfg.ReadBuf)
	var out []byte
	var hb *overload.Heartbeat
	if wd := s.cfg.Watchdog; wd != nil {
		hb = wd.Register(fmt.Sprintf("mt-worker-%d", idx))
	}
	for {
		select {
		case h := <-s.handoff:
			s.connsOpen.Add(1)
			s.track(h.conn, true)
			s.handleConn(h, buf, &out, hb)
			s.track(h.conn, false)
			s.connsOpen.Add(-1)
			left := s.inflight.Add(-1)
			if invariant.Enabled {
				// inflight spans accept to handler exit and is incremented
				// strictly before the handoff, so it can never undershoot.
				invariant.Assertf(left >= 0, "mtserver: inflight went negative (%d)", left)
			}
		case <-s.stopping:
			return
		}
	}
}

// handleConn serves one connection to completion — the thread is bound to
// it for the connection's whole lifetime, requests are served strictly
// sequentially, and responses are written with blocking writes.
func (s *Server) handleConn(h handoffConn, buf []byte, out *[]byte, hb *overload.Heartbeat) {
	conn := h.conn
	cs := &connState{acceptedAt: h.at}
	pl := s.cfg.Obs
	if pl != nil {
		// Queue-wait on the pool is the handoff ride: the wait for a
		// free thread that dominates first-response latency once the
		// pool saturates — invisible to external measurement, front and
		// center here.
		cs.id = pl.NextConnID()
		pl.Record(cs.id, obs.Accept, 0)
		pl.Record(cs.id, obs.QueueWait, time.Since(h.at))
		defer pl.Record(cs.id, obs.Close, 0)
	}
	defer conn.Close()
	var parser httpwire.Parser
	reqs := make([]*httpwire.Request, 0, 4)
	for {
		select {
		case <-s.draining:
			// Graceful drain: the previous response is fully written;
			// close instead of waiting for another request.
			return
		case <-s.stopping:
			return
		default:
		}
		if err := conn.SetReadDeadline(s.ioDeadline()); err != nil {
			return
		}
		// Re-check after arming the deadline: Drain closes s.draining
		// before setting its wake-up deadlines, so if ours overwrote the
		// drain's, the signal is already visible here.
		select {
		case <-s.draining:
			return
		default:
		}
		n, err := conn.Read(buf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				select {
				case <-s.draining:
					// Woken by Drain, not by an expired keep-alive:
					// close cleanly, no RST, no idle-close accounting.
					return
				default:
				}
				// Keep-alive expired: disconnect the idle client. The
				// client that writes later gets a reset — the paper's
				// connection-reset error class.
				s.idleCloses.Add(1)
				if tc, ok := conn.(*net.TCPConn); ok {
					_ = tc.SetLinger(0) // force RST, as a full Apache accept queue would
				}
			}
			return
		}
		if pl != nil && cs.reqStart.IsZero() {
			cs.reqStart = time.Now()
			pl.Record(cs.id, obs.HeaderRead, 0)
		}
		var perr error
		reqs, perr = parser.Feed(reqs[:0], buf[:n])
		for _, req := range reqs {
			if pl != nil {
				now := time.Now()
				pl.Record(cs.id, obs.Parse, now.Sub(cs.reqStart))
				// Pipelined followers in the same batch parse from here.
				cs.reqStart = now
				cs.handlerStart = now
			}
			// The heartbeat span brackets handler work only: keep-alive
			// reads between requests are legitimate parks, not stalls.
			if hb != nil {
				hb.Begin()
			}
			alive, panicked := s.serveSafe(conn, req, out, cs)
			if hb != nil {
				hb.End()
			}
			if panicked {
				// Panic isolation: this connection gets a best-effort
				// 500 and closes; the thread returns to the pool intact.
				s.handlerPanics.Add(1)
				if pl != nil {
					pl.Record(cs.id, obs.Panic, 0)
				}
				_ = conn.SetWriteDeadline(time.Now().Add(time.Second))
				_, _ = conn.Write(httpwire.AppendResponseHeader(nil, 500, "text/plain", 0, false))
				return
			}
			if pl != nil {
				// Recorded after serve bumps Stats.Replies (and includes
				// the blocking write — this thread's real occupancy), so
				// the handler-phase count never exceeds replies.
				pl.Record(cs.id, obs.Handler, time.Since(cs.handlerStart))
			}
			if !alive {
				return
			}
		}
		if pl != nil && !parser.Pending() {
			cs.reqStart = time.Time{}
		}
		if perr != nil {
			s.badRequest.Add(1)
			*out = httpwire.AppendResponseHeader((*out)[:0], 400, "text/plain", 0, false)
			s.write(conn, *out, cs)
			return
		}
	}
}

// serveSafe serves one request with panic isolation: a panicking handler
// is converted into (alive=false, panicked=true) so the caller can send
// a best-effort 500 and close that one connection — the pool thread
// itself survives untouched.
func (s *Server) serveSafe(conn net.Conn, req *httpwire.Request, out *[]byte, cs *connState) (alive, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			alive, panicked = false, true
		}
	}()
	return s.serve(conn, req, out, cs), false
}

// applyFault executes an injected fault on this pool thread. Delay and
// Wedge both yield to server stop so a fault cannot outlive Stop.
func (s *Server) applyFault(f core.Fault) {
	if f.Delay > 0 {
		t := time.NewTimer(f.Delay)
		select {
		case <-t.C:
		case <-s.stopping:
			t.Stop()
		}
	}
	if f.Wedge != nil {
		select {
		case <-f.Wedge:
		case <-s.stopping:
		}
	}
	if f.Panic {
		panic("mtserver: injected handler panic")
	}
}

// observeReply feeds the admission controller the connection's
// accept-to-first-response latency, once per connection. Under a
// saturated pool that latency is dominated by the handoff wait — the
// queueing delay the AIMD loop steers by.
func (s *Server) observeReply(cs *connState) {
	if cs.observed {
		return
	}
	cs.observed = true
	if ac := s.cfg.Admission; ac != nil {
		ac.Observe(time.Since(cs.acceptedAt))
	}
}

// serve writes one response; the return value reports whether the
// connection should stay open.
func (s *Server) serve(conn net.Conn, req *httpwire.Request, out *[]byte, cs *connState) bool {
	if ff := s.cfg.HandlerFault; ff != nil {
		s.applyFault(ff(req.Path))
	}
	switch {
	case req.Method != "GET" && req.Method != "HEAD":
		*out = httpwire.AppendResponseHeader((*out)[:0], 501, "text/plain", 0, req.KeepAlive)
	case s.cfg.Docroot != nil:
		return s.serveDocroot(conn, req, out, cs)
	default:
		body, ctype, ok := s.cfg.Store.Get(req.Path)
		if !ok {
			*out = httpwire.AppendResponseHeader((*out)[:0], 404, "text/plain", 0, req.KeepAlive)
		} else {
			*out = httpwire.AppendResponseHeader((*out)[:0], 200, ctype, int64(len(body)), req.KeepAlive)
			if req.Method == "GET" {
				*out = append(*out, body...)
			}
		}
	}
	if !s.write(conn, *out, cs) {
		return false
	}
	s.replies.Add(1)
	s.observeReply(cs)
	return req.KeepAlive
}

// serveDocroot answers one request from the disk-backed docroot:
// 404/304 and cache-hit bodies go out as one blocking write; fd-only
// entries get their header written first and the body pushed with
// blocking sendfile — the thread stays parked in the kernel until the
// file range has drained into the socket, the thread-pool counterpart
// of the reactor's resumable sendfile state machine.
func (s *Server) serveDocroot(conn net.Conn, req *httpwire.Request, out *[]byte, cs *connState) bool {
	ent, err := s.cfg.Docroot.Get(req.Path)
	if err != nil {
		return s.docrootError(conn, req, out, cs, err)
	}
	defer ent.Release()
	if httpwire.NotModified(req, ent.ETag, ent.ModTime) {
		s.notModified.Add(1)
		*out = httpwire.AppendResponseHeaderValidators((*out)[:0], 304,
			ent.ContentType, 0, req.KeepAlive, ent.ETag, ent.LastModified)
		return s.finish(conn, *out, req.KeepAlive, cs)
	}
	*out = httpwire.AppendResponseHeaderValidators((*out)[:0], 200,
		ent.ContentType, ent.Size, req.KeepAlive, ent.ETag, ent.LastModified)
	if req.Method != "GET" || ent.Size == 0 {
		return s.finish(conn, *out, req.KeepAlive, cs)
	}
	if body := ent.Body(); body != nil {
		*out = append(*out, body...)
		return s.finish(conn, *out, req.KeepAlive, cs)
	}
	// Zero-copy path: header, then the file range straight from the fd.
	if !s.write(conn, *out, cs) {
		return false
	}
	if err := conn.SetWriteDeadline(s.ioDeadline()); err != nil {
		return false
	}
	t0 := time.Now()
	n, fellBack, err := docroot.SendfileTo(conn, ent)
	s.bytesOut.Add(n)
	if fellBack {
		// The body completed over the buffered path; the degradation is
		// counted, and the bytes stay out of the zero-copy tally.
		s.sendfileFallbacks.Add(1)
	} else {
		s.sendfileBytes.Add(n)
	}
	if pl := s.cfg.Obs; pl != nil && n > 0 {
		// The header write above already traced FirstByte; the sendfile
		// park is its own write-phase sample — the blocking counterpart
		// of the reactor's resumable sendfile state machine.
		pl.Record(cs.id, obs.WriteComplete, time.Since(t0))
	}
	if err != nil {
		return false
	}
	s.replies.Add(1)
	s.observeReply(cs)
	return req.KeepAlive
}

// docrootError answers a request whose Root.Get failed — the same three
// classes and statuses as core's docrootError: no servable file is a
// 404; out of descriptors sheds cached ones and answers 503 with
// Retry-After; anything else is a 500 that closes the connection.
func (s *Server) docrootError(conn net.Conn, req *httpwire.Request, out *[]byte, cs *connState, err error) bool {
	keepAlive := req.KeepAlive
	switch {
	case docroot.NotFound(err):
		*out = httpwire.AppendResponseHeader((*out)[:0], 404, "text/plain", 0, keepAlive)
	case docroot.FDExhausted(err):
		s.cfg.Docroot.ShedFDs(docrootPressureEvictions)
		*out = httpwire.AppendResponseHeaderExtra((*out)[:0], 503, "text/plain", 0, keepAlive,
			httpwire.Header{Name: "Retry-After", Value: strconv.Itoa(shedRetryAfterSec)})
	default:
		keepAlive = false
		*out = httpwire.AppendResponseHeader((*out)[:0], 500, "text/plain", 0, false)
	}
	return s.finish(conn, *out, keepAlive, cs)
}

// finish writes a fully assembled response and counts the reply.
func (s *Server) finish(conn net.Conn, data []byte, keepAlive bool, cs *connState) bool {
	if !s.write(conn, data, cs) {
		return false
	}
	s.replies.Add(1)
	s.observeReply(cs)
	return keepAlive
}

// ioDeadline converts the KeepAlive knob into a deadline: zero means
// "no deadline" (time.Time{} clears any previously armed one), not
// "expire immediately".
func (s *Server) ioDeadline() time.Time {
	if s.cfg.KeepAlive <= 0 {
		return time.Time{}
	}
	return time.Now().Add(s.cfg.KeepAlive)
}

// write performs the blocking write of a complete response — the
// architectural signature of the multithreaded server: nothing else
// happens on this thread until the whole response is in the socket.
func (s *Server) write(conn net.Conn, data []byte, cs *connState) bool {
	if err := conn.SetWriteDeadline(s.ioDeadline()); err != nil {
		return false
	}
	pl := s.cfg.Obs
	var t0 time.Time
	if pl != nil {
		t0 = time.Now()
	}
	// Resume-on-short-write loop: a write that delivers only part of
	// the response (kernel memory pressure, or an injected fault) is
	// continued from the cut rather than treated as success — a
	// truncated response that reports true would corrupt the HTTP
	// stream for every pipelined request behind it.
	written := 0
	var err error
	for written < len(data) {
		var n int
		n, err = conn.Write(data[written:])
		written += n
		if err != nil {
			break
		}
		if written >= len(data) {
			break
		}
		if n == 0 {
			err = errors.New("mtserver: write made no progress")
			break
		}
		s.shortWrites.Add(1)
	}
	s.bytesOut.Add(int64(written))
	if pl != nil && written > 0 {
		if !cs.firstByte {
			cs.firstByte = true
			pl.Record(cs.id, obs.FirstByte, time.Since(cs.acceptedAt))
		}
		pl.Record(cs.id, obs.WriteComplete, time.Since(t0))
	}
	return err == nil
}

// StatsFields renders a Stats snapshot as the admin plane's ordered
// field list — the field order here is the /stats wire contract for
// this server (see the golden-file tests in internal/obs).
func StatsFields(st Stats) []obs.Field {
	return []obs.Field{
		{Name: "accepted", Value: st.Accepted},
		{Name: "replies", Value: st.Replies},
		{Name: "bytes_out", Value: st.BytesOut},
		{Name: "idle_closes", Value: st.IdleCloses},
		{Name: "bad_request", Value: st.BadRequest},
		{Name: "conns_open", Value: st.ConnsOpen},
		{Name: "shed", Value: st.Shed},
		{Name: "not_modified", Value: st.NotModified},
		{Name: "sendfile_bytes", Value: st.SendfileBytes},
		{Name: "handler_panics", Value: st.HandlerPanics},
		{Name: "accept_emfile", Value: st.AcceptEMFILE},
		{Name: "accept_backoffs", Value: st.AcceptBackoffs},
		{Name: "short_writes", Value: st.ShortWrites},
		{Name: "sendfile_fallbacks", Value: st.SendfileFallbacks},
	}
}
