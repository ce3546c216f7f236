//go:build linux

// Package proxy is the serving tier built on the same explicit-epoll
// substrate as the reactor server: a reverse proxy / L7 balancer that
// relays HTTP/1.1 requests across a pool of health-checked backends.
//
// One goroutine owns one epoll instance holding every file descriptor —
// the listener, every downstream (client) connection, and every upstream
// (backend) connection — so a relay is a pure state machine with no
// cross-thread handoff on the hot path. Upstream connections are pooled
// and reused per backend with a hard cap; requests beyond the cap queue
// per backend and overflow is shed.
//
// The tier's overload contract is deliberately two-layered and honest:
//
//   - A backend's own 503 (its AIMD admission gate or MaxConns ceiling)
//     passes through BYTE-UNTOUCHED — status line, Retry-After, body and
//     all. The proxy adds no Via header to relayed responses.
//   - The proxy's own refusals — its admission gate, its MaxConns
//     ceiling, pool-queue overflow, no healthy backend, relay failure —
//     are generated locally and ALWAYS carry "Via: 1.1 nioproxy".
//
// A client (see internal/loadgen) can therefore attribute every 503 to
// the layer that shed it: with Via, the tier refused; without, a backend
// refused. That attribution is what makes tier-level experiments
// interpretable — shed at the balancer and shed at the server are
// different phenomena with different remedies.
package proxy

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/dist"
	"repro/internal/httpwire"
	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/overload"
	"repro/internal/reactor"
	"repro/internal/sysfault"
)

// ViaToken is the provenance token stamped on every request the proxy
// relays upstream and on every response the proxy itself originates.
// Relayed responses never carry it — that asymmetry is the shed-
// attribution contract.
const ViaToken = "1.1 nioproxy"

// Config parameterizes the tier.
type Config struct {
	// Port to listen on (0 picks an ephemeral port).
	Port int
	// Backlog for listen(2).
	Backlog int
	// ReadBuf is the per-loop read buffer size.
	ReadBuf int

	// Backends is the upstream pool. At least one is required.
	Backends []BackendConfig
	// Balance selects the balancing policy.
	Balance Policy

	// MaxPerBackend caps open upstream sockets per backend.
	MaxPerBackend int
	// MaxIdlePerBackend caps parked keep-alive sockets per backend.
	MaxIdlePerBackend int
	// MaxWaitPerBackend bounds the per-backend queue of relays waiting
	// for an upstream socket; overflow is shed (503 + Via).
	MaxWaitPerBackend int
	// RelayAttempts is the connect/retry budget per request before the
	// proxy gives up with a 502.
	RelayAttempts int

	// ProbeEvery is the active health-check interval (0 disables active
	// probing; passive ejection still applies, with re-admission handled
	// by the ReadmitAfter cooldown instead of the prober).
	ProbeEvery time.Duration
	// ProbeTimeout bounds one probe's connect+exchange.
	ProbeTimeout time.Duration
	// ProbePath is the request path probes use.
	ProbePath string
	// ProbeSeed seeds the probe jitter (deterministic schedules for
	// reproducible experiments).
	ProbeSeed uint64
	// FailAfter ejects a backend after this many consecutive failures
	// (probe or passive).
	FailAfter int
	// ReviveAfter re-admits an ejected backend after this many
	// consecutive probe successes.
	ReviveAfter int
	// ReadmitAfter is the cooldown after which an ejected backend
	// re-enters rotation on probation when no prober is running
	// (ProbeEvery == 0) — without it a passive ejection would be
	// permanent. Ignored while active probing is on (the prober's
	// ReviveAfter streak governs re-admission there). 0 disables
	// cooldown re-admission.
	ReadmitAfter time.Duration

	// MaxConns caps concurrent downstream connections; excess accepts
	// are shed with 503 + Via + Retry-After.
	MaxConns int
	// Admission, when non-nil, gates accepts with the tier's own AIMD
	// controller. Its Observe feed is accept-to-first-relayed-response.
	Admission *overload.Controller
	// RetryAfterSec is the Retry-After advertised on sheds not governed
	// by the admission controller.
	RetryAfterSec int

	// Obs, when non-nil, receives lifecycle events and phase latencies.
	// With Shard > 0 the phase histograms go to that per-shard block of
	// the plane (merged at read time); the trace ring and kind counts
	// are shared either way.
	Obs *obs.Plane
	// Shard identifies this instance inside a Tier: its obs phase
	// block and (via Lane) its deterministic fault stream. 0 for a
	// standalone proxy.
	Shard int
	// Lane is the sysfault lane this instance's syscalls draw fault
	// decisions from. A Tier gives each member its own lane so fault
	// injection stays per-shard deterministic; 0 is the legacy stream.
	Lane sysfault.Lane
	// ReusePort binds the listener with SO_REUSEPORT so N tier members
	// can share one port and the kernel hashes connections across
	// them. Required (and set) by Tier; off for a standalone proxy.
	ReusePort bool
	// Watchdog, when non-nil, monitors the event loop for stalls.
	Watchdog *overload.Watchdog
	// OnHealthChange, when non-nil, is called on every ejection and
	// re-admission (name, healthy) — from the prober goroutine for
	// probe-driven transitions, from the event loop for passive
	// ejections and cooldown re-admissions.
	OnHealthChange func(name string, healthy bool)
}

// DefaultConfig returns a runnable tier configuration for the given
// backends.
func DefaultConfig(backends []BackendConfig) Config {
	return Config{
		Backlog:           512,
		ReadBuf:           32 << 10,
		Backends:          backends,
		Balance:           LeastInflight,
		MaxPerBackend:     64,
		MaxIdlePerBackend: 16,
		MaxWaitPerBackend: 256,
		RelayAttempts:     3,
		ProbeEvery:        time.Second,
		ProbeTimeout:      time.Second,
		ProbePath:         "/",
		FailAfter:         3,
		ReviveAfter:       2,
		ReadmitAfter:      5 * time.Second,
		MaxConns:          4096,
		RetryAfterSec:     1,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if len(c.Backends) == 0 {
		return errors.New("proxy: no backends")
	}
	for i, b := range c.Backends {
		if b.Addr == "" {
			return fmt.Errorf("proxy: backend %d has no address", i)
		}
	}
	if c.MaxPerBackend <= 0 || c.MaxWaitPerBackend < 0 || c.RelayAttempts <= 0 {
		return errors.New("proxy: pool limits must be positive")
	}
	if c.ReadBuf <= 0 || c.Backlog <= 0 || c.MaxConns <= 0 {
		return errors.New("proxy: Backlog, ReadBuf and MaxConns must be positive")
	}
	if c.FailAfter <= 0 || c.ReviveAfter <= 0 {
		return errors.New("proxy: FailAfter and ReviveAfter must be positive")
	}
	if c.ReadmitAfter < 0 {
		return errors.New("proxy: ReadmitAfter must be non-negative")
	}
	return nil
}

// Stats is an atomic snapshot of the tier's counters.
type Stats struct {
	Accepted  int64 // downstream connections accepted
	Replies   int64 // responses relayed downstream
	BytesIn   int64 // bytes read from backends
	BytesOut  int64 // bytes written to clients
	ConnsOpen int64 // downstream connections currently open

	Shed       int64 // proxy-originated 503s: admission gate, MaxConns, pool-queue overflow
	NoBackend  int64 // proxy-originated 503s: no healthy backend
	BadRequest int64 // proxy-originated 400/501s
	BadGateway int64 // proxy-originated 502s: relay failed after all attempts
	Relayed503 int64 // backend 503s passed through untouched

	UpstreamDials   int64
	UpstreamReuses  int64
	UpstreamErrors  int64
	UpstreamRetries int64
	Ejections       int64
	Readmissions    int64

	AcceptEMFILE   int64 // accept(2) hit EMFILE/ENFILE (reserve-fd recovery ran)
	AcceptBackoffs int64 // accept gate pauses after resource exhaustion
	LocalResErrors int64 // dials refused by local resource exhaustion (not backend blame)
	Prewarms       int64 // upstream sockets pre-warmed on backend re-admission
}

type counter struct{ v atomic.Int64 }

func (c *counter) add(d int64) { c.v.Add(d) }
func (c *counter) get() int64  { return c.v.Load() }

// Server is the serving tier (one event loop; see Tier for the
// sharded N-loop arrangement).
type Server struct {
	cfg Config
	// ln is the accept edge (reactor.Listener has the policy), bound in
	// NewServer and armed by Start.
	ln     *reactor.Listener
	port   int
	lane   sysfault.Lane
	obs    *obs.View
	poller *reactor.Poller

	backends []*Backend
	pick     *picker

	// Event-loop-owned connection tables.
	//nio:loop-owned
	dconns map[int]*dconn
	//nio:loop-owned
	uconns map[int]*uconn
	//nio:loop-owned
	buf []byte
	//nio:loop-owned
	reqs []*httpwire.Request
	//nio:loop-owned
	resps []*httpwire.Response
	// hdrs is the scratch every forwarded header set is built in, and
	// freeRelays the finished relays (with their wire buffers) the next
	// requests reuse: a steady keep-alive exchange allocates neither.
	//nio:loop-owned
	hdrs []httpwire.Header
	//nio:loop-owned
	freeRelays []*relay

	accepted   counter
	acceptEM   counter
	acceptBack counter
	localRes   counter
	prewarms   counter
	replies    counter
	bytesIn    counter
	bytesOut   counter
	connsOpen  counter
	shed       counter
	noBackend  counter
	badRequest counter
	badGateway counter
	relayed503 counter
	dials      counter
	reuses     counter
	upErrors   counter
	retries    counter
	ejections  counter
	readmiss   counter

	wg       sync.WaitGroup
	started  bool
	stopping chan struct{}
	stopOnce sync.Once
	draining atomic.Bool
	drained  chan struct{}
}

// dconn is one downstream (client) connection.
//
//nio:loop-owned
type dconn struct {
	fd     int
	peer   string // client IP for X-Forwarded-For
	parser httpwire.Parser
	// pending are the parsed requests not yet dispatched and out the
	// bytes not yet written, oldest at pendHead and outHead. Both pop by
	// index and rewind when they drain, so a keep-alive connection
	// reuses the two arrays it started with.
	pending  []*relay
	pendHead int
	active   *relay // the relay currently owning the response stream

	out      [][]byte
	outHead  int
	outOff   int // bytes of out[outHead] already written
	writeArm bool
	closing  bool
	// eof: the client finished sending (half-close) while still owed
	// replies. Read interest is dropped; the connection closes once
	// everything it asked for has been relayed and flushed.
	eof bool
	// peerDone: the client owes us nothing more — it half-closed, or a
	// completely parsed request asked for the close and the read that
	// brought it left the socket and the parser empty. Only then may the
	// close push the last reply segment (see flushD); core's conn.peerDone.
	peerDone bool

	obsID      uint64
	acceptedAt time.Time
	observed   bool
	replies    int64
	firstByte  bool
	serveDone  time.Time
	hasDone    bool
}

// relay is one request in flight through the tier. Its wire image is
// built once from the rewritten header set, so a retry against a
// different backend resends the identical bytes.
//
//nio:loop-owned
type relay struct {
	d          *dconn
	b          *Backend
	u          *uconn
	wire       []byte
	path       string
	closeAfter bool
	attempts   int
	cancelled  bool
	enq        time.Time // parsed and queued
	bound      time.Time // bound to an upstream socket
}

// Upstream connection states.
const (
	uConnecting uint8 = iota
	uBusy
	uIdle
)

// uconn is one upstream (backend) socket.
//
//nio:loop-owned
type uconn struct {
	fd    int
	b     *Backend
	state uint8
	r     *relay
	rp    httpwire.RespParser

	pendingWrite []byte
	wOff         int
	writeArm     bool
	gotBytes     bool // response bytes seen for the current relay
	fresh        bool // never completed an exchange (failure = backend failure, not reuse race)
	prewarm      bool // connecting on spec after re-admission; no relay bound yet
}

// idle reports whether d has nothing in flight: no relay active or
// pending and no output queued.
func (d *dconn) idle() bool {
	return d.active == nil && len(d.pending) == 0 && len(d.out) == 0
}

// popPending removes and returns the oldest pending relay.
//
//nio:hot
func (d *dconn) popPending() *relay {
	r := d.pending[d.pendHead]
	d.pending[d.pendHead] = nil
	if d.pendHead++; d.pendHead == len(d.pending) {
		d.pending, d.pendHead = d.pending[:0], 0
	}
	return r
}

// dropPending abandons every pending relay.
func (d *dconn) dropPending() {
	clear(d.pending)
	d.pending, d.pendHead = d.pending[:0], 0
}

// popOut removes the fully written head of the output queue.
//
//nio:hot
func (d *dconn) popOut() {
	d.out[d.outHead] = nil
	d.outOff = 0
	if d.outHead++; d.outHead == len(d.out) {
		d.out, d.outHead = d.out[:0], 0
	}
}

// maxFreeRelays bounds the relay free list: what a burst of pipelined
// requests left behind beyond it goes to the collector.
const maxFreeRelays = 256

// newRelay returns a zeroed relay, recycled when one is free; its wire
// buffer keeps its capacity.
//
//nio:hot
func (s *Server) newRelay() *relay {
	if n := len(s.freeRelays); n > 0 {
		r := s.freeRelays[n-1]
		s.freeRelays[n-1] = nil
		s.freeRelays = s.freeRelays[:n-1]
		return r
	}
	return new(relay) //nio:ok hotalloc -- free list empty: the first requests, or a burst deeper than any before
}

// freeRelay recycles a completed relay. Nothing may still refer to r or
// to its wire bytes: relayComplete is the only caller, after the
// upstream socket has let go of them.
//
//nio:hot
func (s *Server) freeRelay(r *relay) {
	if len(s.freeRelays) < maxFreeRelays {
		*r = relay{wire: r.wire[:0]}
		s.freeRelays = append(s.freeRelays, r)
	}
}

// NewServer binds the listener and prepares the tier; Start launches it.
func NewServer(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	listenFn := reactor.Listen
	if cfg.ReusePort {
		listenFn = reactor.ListenReusePort
	}
	lfd, port, err := listenFn(cfg.Port, cfg.Backlog)
	if err != nil {
		return nil, err
	}
	p, err := reactor.NewPollerLane(512, cfg.Lane)
	if err != nil {
		reactor.CloseFD(cfg.Lane, lfd)
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		ln:       reactor.NewListener(cfg.Lane, lfd, httpwire.NewRefusal(cfg.RetryAfterSec, ViaToken)),
		port:     port,
		lane:     cfg.Lane,
		poller:   p,
		dconns:   make(map[int]*dconn),
		uconns:   make(map[int]*uconn),
		buf:      make([]byte, cfg.ReadBuf),
		stopping: make(chan struct{}),
		drained:  make(chan struct{}),
	}
	if pl := cfg.Obs; pl != nil {
		s.obs = pl.View(cfg.Shard)
	}
	s.backends = make([]*Backend, len(cfg.Backends))
	for i, bc := range cfg.Backends {
		if bc.Name == "" {
			bc.Name = fmt.Sprintf("b%d", i)
		}
		b := &Backend{cfg: bc, idx: i}
		b.healthy.Store(true) // optimistic until proven otherwise
		s.backends[i] = b
	}
	s.pick = newPicker(cfg.Balance, s.backends)
	return s, nil
}

// Port returns the bound data-plane port.
func (s *Server) Port() int { return s.port }

// Addr returns the data-plane address.
func (s *Server) Addr() string { return fmt.Sprintf("127.0.0.1:%d", s.port) }

// Backends returns the live backend handles (for stats and tests).
func (s *Server) Backends() []*Backend { return s.backends }

// Stats snapshots the tier counters.
func (s *Server) Stats() Stats {
	return Stats{
		Accepted:        s.accepted.get(),
		Replies:         s.replies.get(),
		BytesIn:         s.bytesIn.get(),
		BytesOut:        s.bytesOut.get(),
		ConnsOpen:       s.connsOpen.get(),
		Shed:            s.shed.get(),
		NoBackend:       s.noBackend.get(),
		BadRequest:      s.badRequest.get(),
		BadGateway:      s.badGateway.get(),
		Relayed503:      s.relayed503.get(),
		UpstreamDials:   s.dials.get(),
		UpstreamReuses:  s.reuses.get(),
		UpstreamErrors:  s.upErrors.get(),
		UpstreamRetries: s.retries.get(),
		Ejections:       s.ejections.get(),
		Readmissions:    s.readmiss.get(),
		AcceptEMFILE:    s.acceptEM.get(),
		AcceptBackoffs:  s.acceptBack.get(),
		LocalResErrors:  s.localRes.get(),
		Prewarms:        s.prewarms.get(),
	}
}

// StatsFields renders a Stats snapshot in the admin endpoint's stable
// field order (the same contract as core.StatsFields: order is part of
// the text format, append only).
func StatsFields(st Stats) []obs.Field {
	return []obs.Field{
		{Name: "accepted", Value: st.Accepted},
		{Name: "replies", Value: st.Replies},
		{Name: "bytes_in", Value: st.BytesIn},
		{Name: "bytes_out", Value: st.BytesOut},
		{Name: "conns_open", Value: st.ConnsOpen},
		{Name: "shed", Value: st.Shed},
		{Name: "no_backend", Value: st.NoBackend},
		{Name: "bad_request", Value: st.BadRequest},
		{Name: "bad_gateway", Value: st.BadGateway},
		{Name: "relayed_503", Value: st.Relayed503},
		{Name: "upstream_dials", Value: st.UpstreamDials},
		{Name: "upstream_reuses", Value: st.UpstreamReuses},
		{Name: "upstream_errors", Value: st.UpstreamErrors},
		{Name: "upstream_retries", Value: st.UpstreamRetries},
		{Name: "ejections", Value: st.Ejections},
		{Name: "readmissions", Value: st.Readmissions},
		{Name: "accept_emfile", Value: st.AcceptEMFILE},
		{Name: "accept_backoffs", Value: st.AcceptBackoffs},
		{Name: "local_res_errors", Value: st.LocalResErrors},
		{Name: "prewarms", Value: st.Prewarms},
	}
}

// Start launches the event loop and the per-backend probers.
func (s *Server) Start() error {
	if err := s.ln.Arm(s.poller); err != nil {
		return fmt.Errorf("proxy: register listener: %w", err)
	}
	s.started = true
	s.wg.Add(1)
	go s.loop()
	if s.cfg.ProbeEvery > 0 {
		rng := dist.NewRNG(s.cfg.ProbeSeed ^ 0x70726f7879) // "proxy"
		for _, b := range s.backends {
			s.wg.Add(1)
			go s.probeLoop(b, rng.Split())
		}
	}
	return nil
}

// Stop tears the tier down immediately: in-flight relays are abandoned.
func (s *Server) Stop() {
	s.stopOnce.Do(func() {
		close(s.stopping)
		if !s.started {
			// Never started: no loop will run teardown, so what NewServer
			// opened must be closed here or it leaks.
			s.ln.Close()
			s.poller.Close()
			return
		}
		s.poller.Wakeup()
	})
	s.wg.Wait()
}

// Drain stops accepting, lets in-flight exchanges finish (bounded by
// timeout), then stops. Reports whether the drain completed cleanly.
func (s *Server) Drain(timeout time.Duration) bool {
	s.draining.Store(true)
	s.poller.Wakeup()
	clean := true
	select {
	case <-s.drained:
	case <-time.After(timeout):
		clean = false
	}
	s.Stop()
	return clean
}

// ---------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------

var (
	errUpstreamHangup = errors.New("proxy: upstream hangup")
	errUnsolicited    = errors.New("proxy: unsolicited upstream data")
)

//nio:loop
func (s *Server) loop() {
	defer s.wg.Done()
	defer s.teardown()

	var hb *overload.Heartbeat
	if s.cfg.Watchdog != nil {
		name := "proxy-loop"
		if s.cfg.Shard > 0 {
			name = fmt.Sprintf("proxy-loop-%d", s.cfg.Shard)
		}
		hb = s.cfg.Watchdog.Register(name)
	}

	for {
		select {
		case <-s.stopping:
			return
		default:
		}
		draining := s.draining.Load()
		if !draining {
			for _, b := range s.backends {
				if b.prewarmReq.CompareAndSwap(true, false) {
					s.prewarmBackend(b)
				}
			}
		}
		if draining {
			s.ln.Close()
			// Idle keep-alive clients would hold the drain open forever;
			// close every connection with nothing in flight.
			var idle []*dconn
			for _, d := range s.dconns {
				if d.idle() {
					idle = append(idle, d)
				}
			}
			for _, d := range idle {
				s.closeD(d)
			}
		}
		if draining && len(s.dconns) == 0 {
			select {
			case <-s.drained:
			default:
				close(s.drained)
			}
			return
		}
		waitMs := -1
		if draining {
			waitMs = 20
		}
		if s.ln.Gated() {
			// Wake when the gate expires, not before the next event.
			waitMs = s.ln.WaitMs(time.Now(), waitMs)
		}
		if hb != nil {
			hb.End()
		}
		evs, err := s.poller.Wait(waitMs)
		if hb != nil {
			hb.Begin()
		}
		if err != nil {
			return
		}
		for _, ev := range evs {
			if ev.FD == s.ln.FD() {
				s.acceptReady()
				continue
			}
			if u, ok := s.uconns[ev.FD]; ok {
				if ev.Readable {
					// Read before honoring hangup: a backend's final
					// response often arrives together with its FIN.
					s.uReadable(u)
				}
				if u2, still := s.uconns[ev.FD]; still && u2 == u {
					if ev.Hangup {
						s.upstreamFailed(u, errUpstreamHangup)
					} else if ev.Writable {
						s.uWritable(u)
					}
				}
				continue
			}
			if d, ok := s.dconns[ev.FD]; ok {
				if ev.Hangup {
					s.closeD(d)
					continue
				}
				if ev.Readable {
					s.dReadable(d)
				}
				if d2, still := s.dconns[ev.FD]; still && d2 == d && ev.Writable {
					s.flushD(d)
				}
			}
		}
	}
}

func (s *Server) teardown() {
	for _, d := range s.dconns {
		reactor.CloseFD(s.lane, d.fd)
		s.connsOpen.add(-1)
		if pl := s.obs; pl != nil {
			pl.Record(d.obsID, obs.Close, 0)
		}
	}
	s.dconns = make(map[int]*dconn)
	for _, u := range s.uconns {
		reactor.CloseFD(s.lane, u.fd)
		u.b.open.Add(-1)
	}
	s.uconns = make(map[int]*uconn)
	s.ln.Close()
	s.poller.Close()
}

// ---------------------------------------------------------------------
// Downstream (client) side
// ---------------------------------------------------------------------

// acceptReady answers one readiness event on the listener: the tier's
// admission, its MaxConns ceiling, and a new dconn. Whatever the listener
// absorbed on the way — exhaustion, a broken listener — cost at most
// admission, never the relays in flight.
func (s *Server) acceptReady() {
	now := time.Now()
	r := s.ln.Accept(now)
	if r.FD < 0 {
		if r.Exhausted {
			s.acceptEM.add(1)
		}
		if r.Refused {
			s.countShed()
		}
		if r.Gated {
			s.acceptBack.add(1)
		}
		return
	}
	fd := r.FD
	s.accepted.add(1)
	if ac := s.cfg.Admission; ac != nil && !ac.Admit() {
		s.countShed()
		s.ln.Refuse(fd, httpwire.AppendRefusal(nil, ac.RetryAfterSeconds(), ViaToken))
		return
	}
	if int(s.connsOpen.get()) >= s.cfg.MaxConns {
		s.countShed()
		s.ln.Refuse(fd, nil)
		return
	}
	if err := s.poller.Add(fd, true, false); err != nil {
		reactor.CloseFD(s.lane, fd)
		return
	}
	d := &dconn{fd: fd, peer: peerIP(fd), acceptedAt: now}
	if pl := s.obs; pl != nil {
		d.obsID = pl.NextConnID()
		pl.Record(d.obsID, obs.Accept, 0)
	}
	s.dconns[fd] = d
	s.connsOpen.add(1)
}

// countShed counts one refusal at accept; the 503 carries the Via token,
// so clients can attribute it to the proxy layer.
func (s *Server) countShed() {
	s.shed.add(1)
	if pl := s.obs; pl != nil {
		pl.Record(pl.NextConnID(), obs.Shed, 0)
	}
}

// peerIP returns the connected peer's IPv4 address (for XFF), or "".
func peerIP(fd int) string {
	sa, err := syscall.Getpeername(fd)
	if err != nil {
		return ""
	}
	if in4, ok := sa.(*syscall.SockaddrInet4); ok {
		a := in4.Addr
		return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
	}
	return ""
}

// dReadable reads what the client sent and queues a relay per parsed
// request. One read(2) per wake unless it filled the buffer: the poller
// is level-triggered, so the rest reports again on the next Wait.
func (s *Server) dReadable(d *dconn) {
	// askedClose: a request admitted in this wake asked for the close;
	// emptied: the last read came back short, the receive queue was empty.
	askedClose, emptied := false, false
	for {
		n, eof, again, err := reactor.Read(s.lane, d.fd, s.buf)
		if again {
			emptied = true
			break
		}
		if err != nil {
			s.closeD(d)
			return
		}
		if eof {
			if d.idle() {
				s.closeD(d)
				return
			}
			// Half-closed with replies owed: stop reading (EOF stays
			// readable forever), finish what was asked, then close.
			d.eof = true
			if err := s.poller.Modify(d.fd, false, d.writeArm); err != nil {
				s.closeD(d)
				return
			}
			break
		}
		if pl := s.obs; pl != nil && len(d.pending) == 0 && d.active == nil {
			pl.Record(d.obsID, obs.HeaderRead, 0)
		}
		var perr error
		s.reqs, perr = d.parser.Feed(s.reqs[:0], s.buf[:n])
		for _, req := range s.reqs {
			if !s.admitRequest(d, req) {
				break
			}
			askedClose = askedClose || !req.KeepAlive
		}
		if perr != nil {
			s.badRequest.add(1)
			s.respondLocal(d, 400, nil)
			break
		}
		if d.closing {
			break
		}
		if n < len(s.buf) {
			emptied = true
			break
		}
	}
	d.peerDone = d.eof || (askedClose && emptied && !d.parser.Pending())
	s.pump(d)
	s.flushD(d)
}

// admitRequest turns one parsed request into a queued relay. Returns
// false when the connection is now closing (error response queued).
//
//nio:hot
func (s *Server) admitRequest(d *dconn, req *httpwire.Request) bool {
	if d.closing {
		return false
	}
	if pl := s.obs; pl != nil {
		pl.Record(d.obsID, obs.Parse, 0)
	}
	if cl, found := req.Get("Content-Length"); found && cl != "0" {
		// The tier relays bodyless requests only (the workload model is
		// GET/HEAD); refuse rather than silently truncate.
		s.badRequest.add(1)
		s.respondLocal(d, 501, nil)
		return false
	}
	s.hdrs = httpwire.AppendForwardHeaders(s.hdrs[:0], req, ViaToken, d.peer)
	r := s.newRelay()
	r.d = d
	r.wire = httpwire.AppendRequestHead(r.wire, req.Method, req.Path, "HTTP/1.1", s.hdrs)
	r.path = req.Path
	r.closeAfter = !req.KeepAlive
	if s.obs != nil {
		r.enq = time.Now() // the phase clocks below run only for the recorder
	}
	d.pending = append(d.pending, r)
	return true
}

// pump dispatches the connection's next pending relay when the response
// stream is free.
func (s *Server) pump(d *dconn) {
	for d.active == nil && !d.closing && len(d.pending) > 0 {
		r := d.popPending()
		d.active = r
		s.dispatch(r)
	}
}

// maybeReadmit gives ejected backends their cooldown-based second
// chance when no prober is running. Called from the event loop before
// each pick; a no-op while active probing is on (the prober owns
// re-admission there) or while every backend is healthy.
func (s *Server) maybeReadmit() {
	if s.cfg.ProbeEvery > 0 || s.cfg.ReadmitAfter <= 0 {
		return
	}
	var now time.Time
	for _, b := range s.backends {
		if b.healthy.Load() {
			continue
		}
		if now.IsZero() {
			now = time.Now()
		}
		if b.selfReadmit(now, s.cfg.ReadmitAfter) {
			s.readmiss.add(1)
			// Ask the loop (us, next iteration) for a warm-up socket;
			// the relay that triggered this pick dials its own.
			b.prewarmReq.Store(true)
			s.poller.Wakeup()
			if f := s.cfg.OnHealthChange; f != nil {
				f(b.cfg.Name, true)
			}
		}
	}
}

// dispatch picks a backend for r and acquires an upstream socket.
// Called with r == r.d.active.
func (s *Server) dispatch(r *relay) {
	d := r.d
	s.maybeReadmit()
	b := s.pick.pick(s.backends, r.path)
	if b == nil {
		d.active = nil
		if r.attempts > 0 {
			// The relay already burned attempts against real backends
			// (possibly ejecting the last of them); the honest verdict
			// is "your request failed upstream" (502), not the instant
			// refusal a fresh request would get.
			s.badGateway.add(1)
			s.respondLocal(d, 502, nil)
			return
		}
		s.noBackend.add(1)
		s.respondLocal(d, 503, []httpwire.Header{
			{Name: "Retry-After", Value: strconv.Itoa(s.cfg.RetryAfterSec)}})
		return
	}
	r.b = b
	b.inflight.Add(1)
	// Prefer a parked keep-alive socket.
	if n := len(b.idle); n > 0 {
		u := b.idle[n-1]
		b.idle = b.idle[:n-1]
		b.idleN.Add(-1)
		s.reuses.add(1)
		b.reuses.Add(1)
		s.bindRelay(u, r)
		return
	}
	if int(b.open.Load()) < s.cfg.MaxPerBackend {
		s.dialUpstream(b, r)
		return
	}
	if len(b.waitq) >= s.cfg.MaxWaitPerBackend {
		// Pool exhausted and queue full: tier-level shed.
		b.inflight.Add(-1)
		r.b = nil
		s.shed.add(1)
		if pl := s.obs; pl != nil {
			pl.Record(d.obsID, obs.Shed, 0)
		}
		d.active = nil
		s.respondLocal(d, 503, []httpwire.Header{
			{Name: "Retry-After", Value: strconv.Itoa(s.cfg.RetryAfterSec)}})
		return
	}
	b.waitq = append(b.waitq, r)
}

// bindRelay attaches r to a ready upstream socket and starts the write.
//
//nio:hot
func (s *Server) bindRelay(u *uconn, r *relay) {
	u.state = uBusy
	u.r = r
	u.gotBytes = false
	u.rp.Reset()
	r.u = u
	if pl := s.obs; pl != nil {
		r.bound = time.Now()
		pl.Record(r.d.obsID, obs.QueueWait, r.bound.Sub(r.enq))
	}
	u.pendingWrite = r.wire
	u.wOff = 0
	s.writeUpstream(u)
}

// isLocalResErr reports whether a dial failed because THIS process ran
// out of resources — descriptors (EMFILE/ENFILE), socket buffers
// (ENOBUFS/ENOMEM), or ephemeral ports (EADDRNOTAVAIL). Such failures
// say nothing about the backend's health and must never feed its
// failure streak: an fd storm blaming healthy backends would eject the
// whole pool exactly when the tier is least able to afford it.
func isLocalResErr(err error) bool {
	return errors.Is(err, syscall.EMFILE) || errors.Is(err, syscall.ENFILE) ||
		errors.Is(err, syscall.ENOBUFS) || errors.Is(err, syscall.ENOMEM) ||
		errors.Is(err, syscall.EADDRNOTAVAIL)
}

// shedLocalRes answers a relay whose dial died of local resource
// exhaustion: a Via-stamped 503 + Retry-After, with the backend left
// unblamed (no health-streak signal, no retry against another backend —
// the next dial would hit the same wall).
func (s *Server) shedLocalRes(b *Backend, r *relay) {
	s.localRes.add(1)
	b.inflight.Add(-1)
	r.b = nil
	d := r.d
	if r.cancelled || d.active != r {
		return
	}
	d.active = nil
	s.shed.add(1)
	if pl := s.obs; pl != nil {
		pl.Record(d.obsID, obs.Shed, 0)
	}
	s.respondLocal(d, 503, []httpwire.Header{
		{Name: "Retry-After", Value: strconv.Itoa(s.cfg.RetryAfterSec)}})
}

func (s *Server) dialUpstream(b *Backend, r *relay) {
	fd, connected, err := reactor.DialTCP4(s.lane, b.cfg.Addr)
	if err != nil {
		if isLocalResErr(err) {
			s.shedLocalRes(b, r)
			return
		}
		s.noteRelayFailure(b, r, err)
		return
	}
	u := &uconn{fd: fd, b: b, fresh: true}
	s.dials.add(1)
	b.dials.Add(1)
	if connected {
		if err := s.poller.Add(fd, true, false); err != nil {
			reactor.CloseFD(s.lane, fd)
			s.noteRelayFailure(b, r, err)
			return
		}
		s.uconns[fd] = u
		b.open.Add(1)
		s.bindRelay(u, r)
		return
	}
	// Connect in progress: wait for writability, request already staged.
	u.state = uConnecting
	u.r = r
	r.u = u
	u.pendingWrite = r.wire
	u.writeArm = true
	if err := s.poller.Add(fd, false, true); err != nil {
		reactor.CloseFD(s.lane, fd)
		r.u = nil
		s.noteRelayFailure(b, r, err)
		return
	}
	s.uconns[fd] = u
	b.open.Add(1)
}

// prewarmBackend dials one upstream socket for a freshly re-admitted
// backend so the first relay routed its way rides an established
// connection instead of paying connect latency on top of whatever made
// the backend sick. The socket carries no relay; on connect success it
// parks idle (or binds straight to a queued waiter), and on failure it
// feeds the health streak — a backend that cannot take one warm-up
// connection has not really come back.
func (s *Server) prewarmBackend(b *Backend) {
	if !b.healthy.Load() || len(b.idle) > 0 || int(b.open.Load()) >= s.cfg.MaxPerBackend {
		return
	}
	fd, connected, err := reactor.DialTCP4(s.lane, b.cfg.Addr)
	if err != nil {
		if isLocalResErr(err) {
			s.localRes.add(1)
			return
		}
		s.upErrors.add(1)
		b.upErrors.Add(1)
		if b.noteFailure(s.cfg.FailAfter) {
			s.ejections.add(1)
			if f := s.cfg.OnHealthChange; f != nil {
				f(b.cfg.Name, false)
			}
		}
		return
	}
	u := &uconn{fd: fd, b: b, fresh: true, prewarm: true}
	s.dials.add(1)
	b.dials.Add(1)
	if connected {
		if err := s.poller.Add(fd, true, false); err != nil {
			reactor.CloseFD(s.lane, fd)
			return
		}
		s.uconns[fd] = u
		b.open.Add(1)
		u.prewarm = false
		s.prewarms.add(1)
		s.parkIdle(u)
		return
	}
	u.state = uConnecting
	u.writeArm = true
	if err := s.poller.Add(fd, false, true); err != nil {
		reactor.CloseFD(s.lane, fd)
		return
	}
	s.uconns[fd] = u
	b.open.Add(1)
}

// noteRelayFailure marks a backend failure for r's current backend and
// retries the relay elsewhere (or 502s it when the budget is spent).
// Caller must have already detached r from any uconn.
func (s *Server) noteRelayFailure(b *Backend, r *relay, err error) {
	_ = err
	s.upErrors.add(1)
	b.upErrors.Add(1)
	b.inflight.Add(-1)
	r.b = nil
	if b.noteFailure(s.cfg.FailAfter) {
		s.ejections.add(1)
		if f := s.cfg.OnHealthChange; f != nil {
			f(b.cfg.Name, false)
		}
	}
	s.retryOrFail(r)
}

// retryOrFail re-dispatches r (a fresh backend pick — an ejected
// backend is excluded) or gives up with a 502.
func (s *Server) retryOrFail(r *relay) {
	d := r.d
	if r.cancelled || d.active != r {
		return
	}
	r.attempts++
	if r.attempts >= s.cfg.RelayAttempts {
		s.badGateway.add(1)
		d.active = nil
		s.respondLocal(d, 502, nil)
		s.flushD(d)
		return
	}
	s.retries.add(1)
	s.dispatch(r)
}

// respondLocal queues a proxy-originated response (always Via-stamped)
// and marks the connection closing: local responses signal conditions
// under which keeping the connection would mislead the client.
func (s *Server) respondLocal(d *dconn, code int, extra []httpwire.Header) {
	hdrs := append(extra, httpwire.Header{Name: "Via", Value: ViaToken})
	head := httpwire.AppendResponseHeaderExtra(nil, code, "text/plain", 0, false, hdrs...)
	d.out = append(d.out, head)
	d.closing = true
	d.peerDone = false // what the client sent behind the failed request may be unread
	d.dropPending()
	s.flushD(d)
}

// write is one non-blocking write on either leg; more says a close that
// will push b is right behind it (see flushD). ENOBUFS reads as
// "again": transient kernel buffer exhaustion is a stall (keep the
// queue, wait for writability), not a failure — as in core's flush.
//
//nio:hot
func (s *Server) write(fd int, b []byte, more bool) (n int, again bool, err error) {
	if more {
		n, again, err = reactor.WriteMore(s.lane, fd, b)
	} else {
		n, again, err = reactor.Write(s.lane, fd, b)
	}
	if errors.Is(err, syscall.ENOBUFS) {
		return 0, true, nil
	}
	return n, again, err
}

// flushD writes the client's queued output. Core's cork through the
// close applies to a clean one: the last segment of a relayed reply goes
// out with MSG_MORE when the connection closes the moment the queue
// drains and the client owes us nothing (dconn.peerDone), so close(2)
// sets the FIN on it. Local error responses and sheds push first — the
// input behind them may be unread, and close(2) would then reset the
// connection and purge a held reply. A flagged write that falls short
// leaves EPOLLOUT armed, so no cork waits on the kernel's 200 ms timer.
//
//nio:hot
func (s *Server) flushD(d *dconn) {
	if _, open := s.dconns[d.fd]; !open {
		return
	}
	for len(d.out) > 0 {
		seg := d.out[d.outHead][d.outOff:]
		finRides := d.peerDone && (d.closing || d.eof) && d.active == nil &&
			len(d.pending) == 0 && d.outHead == len(d.out)-1
		n, again, err := s.write(d.fd, seg, finRides)
		if err != nil {
			s.closeD(d)
			return
		}
		s.bytesOut.add(int64(n))
		if n > 0 && !d.firstByte {
			d.firstByte = true
			if pl := s.obs; pl != nil {
				pl.Record(d.obsID, obs.FirstByte, time.Since(d.acceptedAt))
			}
		}
		if n == len(seg) {
			d.popOut()
			continue
		}
		d.outOff += n
		if again || n < len(seg) {
			s.armWriteD(d)
			return
		}
	}
	if d.hasDone {
		d.hasDone = false
		if pl := s.obs; pl != nil {
			pl.Record(d.obsID, obs.WriteComplete, time.Since(d.serveDone))
		}
	}
	s.observeFirst(d)
	if (d.closing || d.eof) && d.active == nil && len(d.pending) == 0 {
		s.closeD(d)
		return
	}
	if d.writeArm {
		d.writeArm = false
		if err := s.poller.Modify(d.fd, !d.eof, false); err != nil {
			s.closeD(d)
		}
	}
}

func (s *Server) armWriteD(d *dconn) {
	if d.writeArm {
		return
	}
	if err := s.poller.Modify(d.fd, !d.eof, true); err != nil {
		s.closeD(d)
		return
	}
	d.writeArm = true
}

// observeFirst feeds the admission controller its latency signal: the
// accept-to-first-relayed-response time, once per connection. Local
// (shed/error) responses never feed it — fast refusals must not teach
// the AIMD gate that latency is fine.
func (s *Server) observeFirst(d *dconn) {
	if d.observed || d.replies == 0 {
		return
	}
	d.observed = true
	if ac := s.cfg.Admission; ac != nil {
		ac.Observe(time.Since(d.acceptedAt))
	}
}

func (s *Server) closeD(d *dconn) {
	if _, open := s.dconns[d.fd]; !open {
		return
	}
	delete(s.dconns, d.fd)
	s.poller.Forget(d.fd)
	reactor.CloseFD(s.lane, d.fd)
	s.connsOpen.add(-1)
	if pl := s.obs; pl != nil {
		pl.Record(d.obsID, obs.Close, 0)
	}
	if invariant.Enabled {
		invariant.Assertf(s.connsOpen.get() >= 0,
			"proxy: connsOpen went negative (%d)", s.connsOpen.get())
	}
	// Abort the in-flight relay, if any.
	if r := d.active; r != nil {
		d.active = nil
		r.cancelled = true
		if u := r.u; u != nil {
			// The upstream socket is mid-exchange for a dead client; it
			// cannot be reused.
			r.u = nil
			u.r = nil
			if r.b != nil {
				r.b.inflight.Add(-1)
			}
			s.removeUpstream(u)
		} else if r.b != nil {
			// Waiting in the backend queue; popWaiter skips it.
			r.b.inflight.Add(-1)
		}
	}
	d.pending, d.out = nil, nil
}

// ---------------------------------------------------------------------
// Upstream (backend) side
// ---------------------------------------------------------------------

func (s *Server) uWritable(u *uconn) {
	if u.state == uConnecting {
		if err := reactor.ConnectResult(u.fd); err != nil {
			s.upstreamFailed(u, err)
			return
		}
		u.state = uBusy
		if u.prewarm && u.r == nil {
			// A warm-up connect completed: park the socket for the next
			// relay (or hand it to a waiter already queued).
			u.prewarm = false
			u.writeArm = false
			if err := s.poller.Modify(u.fd, true, false); err != nil {
				s.removeUpstream(u)
				return
			}
			s.prewarms.add(1)
			s.parkIdle(u)
			return
		}
		if pl := s.obs; pl != nil && u.r != nil {
			u.r.bound = time.Now()
			pl.Record(u.r.d.obsID, obs.QueueWait, u.r.bound.Sub(u.r.enq))
		}
	}
	s.writeUpstream(u)
}

//nio:hot
func (s *Server) writeUpstream(u *uconn) {
	for u.wOff < len(u.pendingWrite) {
		n, again, err := s.write(u.fd, u.pendingWrite[u.wOff:], false)
		if err != nil {
			s.upstreamFailed(u, err)
			return
		}
		u.wOff += n
		if again || u.wOff < len(u.pendingWrite) {
			if !u.writeArm {
				if err := s.poller.Modify(u.fd, true, true); err != nil {
					s.upstreamFailed(u, err)
					return
				}
				u.writeArm = true
			}
			return
		}
	}
	u.pendingWrite = nil
	u.wOff = 0
	if u.writeArm {
		u.writeArm = false
		if err := s.poller.Modify(u.fd, true, false); err != nil {
			s.upstreamFailed(u, err)
		}
	}
}

// uReadable relays what the backend sent. The bytes are not copied on
// their way through: the read buffer itself is queued on the client's
// output (the loan), the unchanged complete-then-flush order runs, and
// endLoan takes back whatever the client's socket did not accept before
// the buffer is read into again.
//
//nio:hot
func (s *Server) uReadable(u *uconn) {
	for {
		n, eof, again, err := reactor.Read(s.lane, u.fd, s.buf)
		if again {
			return
		}
		if err != nil || eof {
			s.upstreamFailed(u, err)
			return
		}
		if u.state != uBusy || u.r == nil {
			// Data on a socket with no relay bound: protocol violation
			// (or a stale idle socket); drop the socket.
			s.upstreamFailed(u, errUnsolicited)
			return
		}
		u.gotBytes = true
		s.bytesIn.add(int64(n))
		r := u.r
		d := r.d
		// Forward the raw bytes downstream while the parser tracks
		// framing. Relayed responses are never rewritten — that is the
		// shed-attribution contract.
		d.out = append(d.out, s.buf[:n])
		var perr error
		s.resps, perr = u.rp.Feed(s.resps[:0], s.buf[:n])
		if perr != nil || len(s.resps) > 1 {
			s.upstreamFailed(u, perr)
			s.endLoan(d, n)
			return
		}
		done := len(s.resps) == 1
		if done {
			s.relayComplete(u, r, s.resps[0])
		}
		s.flushD(d)
		s.endLoan(d, n)
		if done {
			return
		}
		if _, open := s.uconns[u.fd]; !open {
			return // flush failed and closeD tore the upstream down
		}
	}
}

// endLoan ends the loan uReadable made of s.buf[:n] to d's output queue:
// the part of it still queued, if any, becomes a copy. Only a client
// that is not keeping up with its backend pays for one.
//
//nio:hot
func (s *Server) endLoan(d *dconn, n int) {
	for i := d.outHead; i < len(d.out); i++ {
		if seg := d.out[i]; len(seg) == n && &seg[0] == &s.buf[0] {
			if i == d.outHead {
				seg, d.outOff = seg[d.outOff:], 0
			}
			d.out[i] = append([]byte(nil), seg...)
			return
		}
	}
}

// relayComplete finishes one exchange: accounting, socket disposition
// (park for reuse or close, per the backend's keep-alive decision), and
// dispatching whatever is waiting — on the backend's queue and on the
// client connection.
//
//nio:hot
func (s *Server) relayComplete(u *uconn, r *relay, resp *httpwire.Response) {
	d := r.d
	b := u.b
	b.inflight.Add(-1)
	b.relayed.Add(1)
	s.replies.add(1)
	d.replies++
	if resp.StatusCode == 503 {
		// A backend shed, relayed untouched. Counted, not rewritten.
		s.relayed503.add(1)
		b.relayed503.Add(1)
	}
	b.noteSuccess(false, s.cfg.ReviveAfter)
	if pl := s.obs; pl != nil {
		d.serveDone = time.Now()
		d.hasDone = true
		pl.Record(d.obsID, obs.Handler, d.serveDone.Sub(r.bound))
	}
	u.r = nil
	r.u = nil
	r.b = nil
	d.active = nil
	if r.closeAfter {
		d.closing = true
		d.dropPending()
	}
	u.fresh = false
	// A backend that answered before it was sent the whole request (the
	// write blocked or fell short, and the reply overtook it) leaves the
	// tail of r.wire unsent: parked like that, the socket would give the
	// next relay's backend a torso followed by a new request — and r.wire
	// is about to be recycled under it. Such a socket is never reused.
	halfWritten := u.wOff < len(u.pendingWrite)
	u.pendingWrite, u.wOff = nil, 0
	if !resp.KeepAlive || halfWritten {
		s.removeUpstream(u)
	} else {
		s.parkIdle(u)
	}
	s.freeRelay(r)
	s.pump(d)
}

// parkIdle returns a reusable socket to its backend: a queued waiter
// takes it immediately, otherwise it joins the idle pool (or closes if
// the pool is full).
func (s *Server) parkIdle(u *uconn) {
	b := u.b
	if r := s.popWaiter(b); r != nil {
		s.reuses.add(1)
		b.reuses.Add(1)
		s.bindRelay(u, r)
		return
	}
	if len(b.idle) >= s.cfg.MaxIdlePerBackend {
		s.removeUpstream(u)
		return
	}
	u.state = uIdle
	u.r = nil
	b.idle = append(b.idle, u)
	b.idleN.Add(1)
}

// popWaiter returns the backend's oldest queued live relay.
func (s *Server) popWaiter(b *Backend) *relay {
	for len(b.waitq) > 0 {
		r := b.waitq[0]
		b.waitq[0] = nil
		b.waitq = b.waitq[1:]
		if r.cancelled {
			continue
		}
		return r
	}
	return nil
}

// upstreamFailed handles any failure on an upstream socket: connect
// refused, reset, EOF mid-response, framing violation. The disposition
// depends on where the exchange stood:
//
//   - idle socket: the backend recycled a keep-alive connection — a
//     non-event, not a failure signal.
//   - busy, no response bytes yet, on a REUSED socket: almost certainly
//     the keep-alive recycling race (backend closed as we picked the
//     socket); retry silently without marking the backend.
//   - busy, no response bytes yet, on a FRESH socket: a real backend
//     failure; mark it (passive ejection) and retry elsewhere.
//   - busy with response bytes already forwarded: the downstream
//     connection is poisoned mid-response; mark the backend and cut the
//     client — a truncated response must not look complete.
func (s *Server) upstreamFailed(u *uconn, err error) {
	b := u.b
	r := u.r
	wasIdle := u.state == uIdle
	fresh := u.fresh
	gotBytes := u.gotBytes
	s.removeUpstream(u)
	if u.prewarm && r == nil {
		// A warm-up connect failed: no relay to retry, but the signal is
		// real — a re-admitted backend refusing its first connection
		// feeds the failure streak like any relay-path connect failure.
		s.upErrors.add(1)
		b.upErrors.Add(1)
		if b.noteFailure(s.cfg.FailAfter) {
			s.ejections.add(1)
			if f := s.cfg.OnHealthChange; f != nil {
				f(b.cfg.Name, false)
			}
		}
		return
	}
	if wasIdle || r == nil {
		return
	}
	r.u = nil
	if gotBytes {
		s.upErrors.add(1)
		b.upErrors.Add(1)
		b.inflight.Add(-1)
		r.b = nil
		if b.noteFailure(s.cfg.FailAfter) {
			s.ejections.add(1)
			if f := s.cfg.OnHealthChange; f != nil {
				f(b.cfg.Name, false)
			}
		}
		if d := r.d; d.active == r {
			d.active = nil
			s.closeD(d)
		}
		return
	}
	if !fresh {
		// Keep-alive recycling race: retry without blaming the backend.
		b.inflight.Add(-1)
		r.b = nil
		s.retries.add(1)
		if !r.cancelled && r.d.active == r {
			s.dispatch(r)
		}
		return
	}
	s.noteRelayFailure(b, r, err)
}

// removeUpstream unregisters and closes an upstream socket, whatever
// state it is in (including parked in the idle pool).
func (s *Server) removeUpstream(u *uconn) {
	if _, open := s.uconns[u.fd]; !open {
		return
	}
	delete(s.uconns, u.fd)
	s.poller.Forget(u.fd)
	reactor.CloseFD(s.lane, u.fd)
	b := u.b
	b.open.Add(-1)
	if u.state == uIdle {
		for i, x := range b.idle {
			if x == u {
				b.idle = append(b.idle[:i], b.idle[i+1:]...)
				b.idleN.Add(-1)
				break
			}
		}
	}
	if invariant.Enabled {
		invariant.Assertf(b.open.Load() >= 0,
			"proxy: backend %s open sockets went negative", b.cfg.Name)
	}
}
