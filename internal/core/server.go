//go:build linux

package core

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/docroot"
	"repro/internal/httpwire"
	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/overload"
	"repro/internal/reactor"
	"repro/internal/sysfault"
)

// Config parameterizes the event-driven server.
type Config struct {
	// Port to listen on (0 picks a free port; see Server.Port).
	Port int
	// Workers is the number of reactor worker threads under the legacy
	// single-acceptor topology (the paper's key knob: 1–2 suffice on a
	// uniprocessor, 2 on the 4-way SMP). Ignored when Shards > 0.
	Workers int
	// Shards selects the N-reactor sharded architecture: N independent
	// event loops, each with its own epoll instance, wakeup pipe, timer
	// wheel, connection table, and deterministic fault lane, accepting
	// directly from the shared port via SO_REUSEPORT so the kernel
	// hashes incoming connections across the shards with no shared
	// accept lock. 0 keeps the legacy topology: one blocking acceptor
	// thread fanning accepted fds out to Workers reactor loops.
	Shards int
	// AcceptFanout forces the single-acceptor fan-out path even when
	// Shards > 0: each shard still runs its own loop, wheel, and fault
	// lane, but accepted fds arrive over a lock-free SPSC ring from the
	// acceptor thread instead of a per-shard listener. This is also the
	// automatic fallback when the kernel rejects SO_REUSEPORT.
	AcceptFanout bool
	// Backlog is the listen(2) backlog.
	Backlog int
	// ReadBuf is the per-read buffer size.
	ReadBuf int
	// Store serves the content from memory. Required unless Docroot is
	// set.
	Store Store
	// Docroot, when non-nil, serves real files from disk through the
	// bounded content cache instead of Store: cache hits are written
	// from memory, misses are delivered zero-copy with non-blocking
	// sendfile(2) from the reactor loop, and conditional GETs
	// (If-None-Match / If-Modified-Since) are answered with 304.
	Docroot *docroot.Root
	// IdleTimeout, when positive, disconnects connections with no
	// activity for this long — the policy a thread-pool server is
	// *forced* to adopt to recycle threads. The event-driven
	// architecture does not need it (a paper headline), so the default
	// is 0 = never; the knob exists for the live ablation that shows
	// the reset errors appear with the policy, not the architecture.
	IdleTimeout time.Duration
	// HeaderTimeout, when positive, bounds how long a connection may
	// take to deliver a complete request once one has begun (and how
	// long a fresh connection may take to send its first). Distinct
	// from IdleTimeout: an idle keep-alive connection between requests
	// is free to linger, but a peer that dribbles header bytes — a
	// slowloris — is reset when the clock runs out, so it cannot pin
	// parser buffers forever. 0 disables the guard.
	HeaderTimeout time.Duration
	// MaxConns, when positive, caps concurrently open connections:
	// excess accepts are answered with an immediate 503 and closed
	// (counted in Stats.Shed) instead of queuing without bound — the
	// *hard ceiling* for the connection-flood regime. 0 = unlimited.
	// The cap is global across shards (enforced with a CAS, so N
	// accepting shards cannot race past it together).
	MaxConns int
	// Admission, when non-nil, is the adaptive overload controller: it
	// is consulted on every accept (before the MaxConns ceiling), and
	// fed the accept-to-first-response latency of each admitted
	// connection so its AIMD loop can hold the configured p95 target.
	// Refused connections are shed with 503 + Retry-After + close.
	Admission *overload.Controller
	// Watchdog, when non-nil, monitors the acceptor and every reactor
	// shard for wedged loops: each thread registers a heartbeat at
	// Start and brackets its work with Begin/End, so a handler that
	// hangs the loop is flagged within roughly one watchdog interval.
	// The watchdog is caller-owned (it may be shared across servers)
	// and is not stopped by Stop.
	Watchdog *overload.Watchdog
	// HandlerFault, when non-nil, injects faults into request handling
	// (see Fault) — the hook the robustness tests drive panics and
	// wedges through. nil in production.
	HandlerFault FaultFunc
	// Obs, when non-nil, is the live observability plane: every
	// connection's lifecycle (accept, queue-wait, parse, handler,
	// first-byte, write, close/shed/panic) is traced into its ring and
	// the four phase latencies feed its histograms, all read live by the
	// admin endpoint. Each shard records into its own per-shard phase
	// block (obs.Plane.View) so the hot path stays uncontended; the
	// admin read side merges the blocks bucketwise. Every recording
	// site is behind a nil check, so a nil Obs costs nothing.
	Obs *obs.Plane
}

// DefaultConfig returns the paper's best uniprocessor configuration.
func DefaultConfig(store Store) Config {
	return Config{
		Workers: 1,
		Backlog: 1024,
		ReadBuf: 16 << 10,
		Store:   store,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Shards < 0:
		return fmt.Errorf("core: negative Shards %d", c.Shards)
	case c.Shards > sysfault.MaxLanes:
		return fmt.Errorf("core: Shards %d exceeds the %d supported fault lanes", c.Shards, sysfault.MaxLanes)
	case c.Shards == 0 && c.Workers <= 0:
		return fmt.Errorf("core: Workers must be positive, got %d", c.Workers)
	case c.Backlog <= 0:
		return fmt.Errorf("core: Backlog must be positive, got %d", c.Backlog)
	case c.ReadBuf < 256:
		return fmt.Errorf("core: ReadBuf must be at least 256, got %d", c.ReadBuf)
	case c.Store == nil && c.Docroot == nil:
		return fmt.Errorf("core: a Store or a Docroot is required")
	case c.Port < 0 || c.Port > 65535:
		return fmt.Errorf("core: invalid port %d", c.Port)
	case c.IdleTimeout < 0:
		return fmt.Errorf("core: negative IdleTimeout %v", c.IdleTimeout)
	case c.HeaderTimeout < 0:
		return fmt.Errorf("core: negative HeaderTimeout %v", c.HeaderTimeout)
	case c.MaxConns < 0:
		return fmt.Errorf("core: negative MaxConns %d", c.MaxConns)
	}
	return nil
}

// shardCount is the number of event loops this configuration runs.
func (c Config) shardCount() int {
	if c.Shards > 0 {
		return c.Shards
	}
	return c.Workers
}

// Stats are the server's counters (all atomic; safe to read live).
type Stats struct {
	Accepted   int64
	Replies    int64
	BytesOut   int64
	NotFound   int64
	BadRequest int64
	ConnsOpen  int64
	IdleCloses int64
	// Shed counts connections refused with a 503 by MaxConns admission
	// control.
	Shed int64
	// HeaderTimeouts counts connections reset for failing to deliver a
	// complete request within HeaderTimeout (slowloris defense).
	HeaderTimeouts int64
	// NotModified counts 304 replies to conditional GETs (docroot only).
	NotModified int64
	// SendfileBytes counts body bytes delivered zero-copy via
	// sendfile(2); BytesOut includes them.
	SendfileBytes int64
	// HandlerPanics counts handler panics that were isolated to their
	// connection (best-effort 500 + close) instead of killing the
	// process.
	HandlerPanics int64
	// AcceptEMFILE counts accept attempts refused by the kernel for
	// descriptor exhaustion (EMFILE/ENFILE) and absorbed by the
	// reserve-descriptor recovery instead of killing the acceptor.
	AcceptEMFILE int64
	// AcceptBackoffs counts backoff waits taken by the accept gate
	// after resource-exhausted accepts (instead of hot-spinning on a
	// level-triggered listener that stays readable).
	AcceptBackoffs int64
	// WriteStalls counts ENOBUFS write failures absorbed by re-arming
	// write interest instead of tearing the connection down.
	WriteStalls int64
	// WriteResets counts connections torn down by a peer reset or
	// broken pipe mid-response (distinct from generic write errors).
	WriteResets int64
	// SendfileFallbacks counts sendfile(2) failures recovered by
	// switching the in-flight response to buffered delivery from the
	// same resume offset — the response bytes stay correct.
	SendfileFallbacks int64
}

// statBlock is one owner's set of server counters: each shard has its
// own block (so the hot path never bounces a shared cache line between
// loops) and the acceptor thread has one for the accept-side counters
// it owns under fan-out. Server.Stats sums the blocks — plain
// addition, so the merged view is exact, not sampled.
type statBlock struct {
	accepted          counter
	replies           counter
	bytesOut          counter
	notFound          counter
	badRequest        counter
	idleCloses        counter
	shed              counter
	headerTimeouts    counter
	notModified       counter
	sendfileBytes     counter
	handlerPanics     counter
	acceptEMFILE      counter
	acceptBackoffs    counter
	writeStalls       counter
	writeResets       counter
	sendfileFallbacks counter
}

// addInto accumulates this block into st. ConnsOpen is not a block
// field: it is the one genuinely global gauge (the MaxConns ceiling is
// global), kept on the Server.
func (b *statBlock) addInto(st *Stats) {
	st.Accepted += b.accepted.get()
	st.Replies += b.replies.get()
	st.BytesOut += b.bytesOut.get()
	st.NotFound += b.notFound.get()
	st.BadRequest += b.badRequest.get()
	st.IdleCloses += b.idleCloses.get()
	st.Shed += b.shed.get()
	st.HeaderTimeouts += b.headerTimeouts.get()
	st.NotModified += b.notModified.get()
	st.SendfileBytes += b.sendfileBytes.get()
	st.HandlerPanics += b.handlerPanics.get()
	st.AcceptEMFILE += b.acceptEMFILE.get()
	st.AcceptBackoffs += b.acceptBackoffs.get()
	st.WriteStalls += b.writeStalls.get()
	st.WriteResets += b.writeResets.get()
	st.SendfileFallbacks += b.sendfileFallbacks.get()
}

// Server is the live event-driven web server.
type Server struct {
	cfg  Config
	port int
	// lns are the listeners bound in NewServer: one per shard in
	// reuseport mode, each armed by its shard on its own poller, or the
	// single shared one under fan-out, armed by Start on the acceptor's.
	lns []*reactor.Listener
	// fanout records the accept topology actually in effect: true for
	// the single-acceptor path (legacy Workers mode, forced
	// AcceptFanout, or SO_REUSEPORT unavailable).
	fanout  bool
	started bool

	shards []*shard
	// acceptor is the fan-out acceptor thread's poller; nil in reuseport
	// mode, where shards accept.
	acceptor  *reactor.Poller
	wg        sync.WaitGroup
	stopping  chan struct{}
	stopOnce  sync.Once
	draining  chan struct{}
	drainOnce sync.Once

	// connsOpen is the global open-connection gauge; tryAcquireConn
	// CASes against it so the MaxConns ceiling holds exactly even with
	// N shards accepting concurrently.
	connsOpen counter
	// acceptStats holds the accept-side counters owned by the fan-out
	// acceptor thread (zero in reuseport mode, where shards accept).
	acceptStats *statBlock
	// obsAccept is the acceptor's observability view (shard-0 block).
	obsAccept *obs.View
}

// counter is a tiny atomic counter (avoids importing metrics here).
type counter struct{ v int64 }

func (c *counter) add(d int64) { atomicAdd(&c.v, d) }
func (c *counter) get() int64  { return atomicLoad(&c.v) }
func (c *counter) cas(old, new int64) bool {
	return atomicCAS(&c.v, old, new)
}

// NewServer validates the configuration and binds the listener(s);
// call Start to begin serving. In sharded mode every per-shard
// SO_REUSEPORT listener is bound here, up front, so a port conflict or
// an unsupported kernel surfaces before any thread starts; the kernel
// begins hashing connections across the listeners the moment the first
// shard loop runs.
func NewServer(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:         cfg,
		stopping:    make(chan struct{}),
		draining:    make(chan struct{}),
		acceptStats: &statBlock{},
	}
	if pl := cfg.Obs; pl != nil {
		s.obsAccept = pl.View(0)
	}
	fanout := cfg.Shards <= 0 || cfg.AcceptFanout
	if !fanout {
		port := cfg.Port
		for i := 0; i < cfg.Shards; i++ {
			lfd, p, err := reactor.ListenReusePort(port, cfg.Backlog)
			if err != nil {
				for _, ln := range s.lns {
					ln.Close()
				}
				s.lns = nil
				if i == 0 {
					// SO_REUSEPORT itself may be what failed (old
					// kernel); the fan-out path needs no such support,
					// so fall back rather than refuse to serve. A
					// plain bind conflict fails again below and is
					// reported from there.
					fanout = true
					break
				}
				return nil, err
			}
			port = p
			// Shard i draws its fault decisions from lane i (see newShard).
			s.lns = append(s.lns, newListener(sysfault.Lane(i), lfd))
		}
		if !fanout {
			s.port = port
		}
	}
	if fanout {
		lfd, port, err := reactor.Listen(cfg.Port, cfg.Backlog)
		if err != nil {
			return nil, err
		}
		s.lns = []*reactor.Listener{newListener(0, lfd)}
		s.port = port
	}
	s.fanout = fanout
	return s, nil
}

// Port returns the bound port.
func (s *Server) Port() int { return s.port }

// Addr returns the listen address.
func (s *Server) Addr() string { return fmt.Sprintf("127.0.0.1:%d", s.port) }

// NumShards returns the number of event loops this server runs.
func (s *Server) NumShards() int { return s.cfg.shardCount() }

// AcceptMode reports how connections reach the shards: "reuseport"
// (kernel accept sharding, each shard accepts from its own listener)
// or "fanout" (one acceptor thread distributing over SPSC rings).
func (s *Server) AcceptMode() string {
	if s.fanout {
		return "fanout"
	}
	return "reuseport"
}

// Stats returns a snapshot of the counters, summed across the accept
// side and every shard. Each addend is an atomic counter and the
// blocks are merged by plain addition, so the snapshot is exact up to
// the usual torn-read-across-counters caveat any live scrape has.
func (s *Server) Stats() Stats {
	var st Stats
	s.acceptStats.addInto(&st)
	for _, w := range s.shards {
		w.stats.addInto(&st)
	}
	st.ConnsOpen = s.connsOpen.get()
	return st
}

// ShardStats returns shard i's own counters. ConnsOpen is a global
// gauge and reported as 0 here; read it from Stats. Valid after Start.
func (s *Server) ShardStats(i int) Stats {
	var st Stats
	s.shards[i].stats.addInto(&st)
	return st
}

// tryAcquireConn claims one connsOpen slot under the MaxConns ceiling,
// reporting false when the server is full. With MaxConns unset it is a
// plain increment; with a ceiling it is a CAS loop, so concurrent
// accepting shards cannot overshoot the cap together.
func (s *Server) tryAcquireConn() bool {
	mc := s.cfg.MaxConns
	if mc <= 0 {
		s.connsOpen.add(1)
		return true
	}
	for {
		cur := s.connsOpen.get()
		if cur >= int64(mc) {
			return false
		}
		if s.connsOpen.cas(cur, cur+1) {
			return true
		}
	}
}

// Start launches the shard threads (and, under fan-out, the acceptor).
func (s *Server) Start() error {
	n := s.cfg.shardCount()
	fail := func(err error) error {
		for _, ln := range s.lns {
			ln.Close() // before the poller it may be armed on
		}
		for _, w := range s.shards {
			w.poller.Close()
		}
		s.shards = nil
		return err
	}
	for i := 0; i < n; i++ {
		w, err := newShard(s, i)
		if err != nil {
			return fail(err)
		}
		s.shards = append(s.shards, w)
	}
	if s.fanout {
		ap, err := reactor.NewPoller(64)
		if err != nil {
			return fail(err)
		}
		if err := s.lns[0].Arm(ap); err != nil {
			ap.Close()
			return fail(err)
		}
		s.acceptor = ap
	}
	s.started = true
	// Date-header ticker: one refresh per second, server-wide.
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-s.stopping:
				return
			case now := <-t.C:
				httpwire.RefreshDate(now)
			}
		}
	}()
	for _, w := range s.shards {
		s.wg.Add(1)
		go w.loop()
	}
	if s.fanout {
		s.wg.Add(1)
		go s.acceptLoop()
	}
	return nil
}

// Stop shuts the server down and waits for all threads to exit. Safe to
// call before Start: the bound listeners are closed so the fds do not
// leak, and nothing is waited on.
func (s *Server) Stop() {
	s.stopOnce.Do(func() {
		close(s.stopping)
		if !s.started {
			// Never (fully) started: no thread owns the listeners yet,
			// so they must be closed here or they leak.
			for _, ln := range s.lns {
				ln.Close()
			}
			return
		}
		if s.acceptor != nil {
			s.acceptor.Wakeup()
		}
		for _, w := range s.shards {
			w.poller.Wakeup()
		}
	})
	s.wg.Wait()
}

// Drain gracefully shuts the server down: it stops accepting, closes
// idle connections immediately, lets every in-flight response finish
// flushing (up to timeout), and then stops. It reports whether all
// connections drained before the deadline; on false, the stragglers were
// cut off by Stop. During the drain no new requests are read — pending
// output is the only work left.
func (s *Server) Drain(timeout time.Duration) bool {
	s.drainOnce.Do(func() {
		close(s.draining)
		if s.started {
			if s.acceptor != nil {
				s.acceptor.Wakeup()
			}
			for _, w := range s.shards {
				w.poller.Wakeup()
			}
		}
	})
	drained := false
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if s.connsOpen.get() == 0 {
			drained = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.Stop()
	return drained
}

// acceptLoop is the fan-out acceptor thread: a loop with nothing on its
// poller but the shared listener, handing accepted fds to shards
// round-robin over their SPSC rings — the same split the paper's nio
// server uses (one acceptor + N workers). All its syscalls run on
// fault lane 0, the legacy deterministic stream.
//
//nio:loop
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	defer s.acceptor.Close()
	ln := s.lns[0]
	defer ln.Close()
	var hb *overload.Heartbeat
	if wd := s.cfg.Watchdog; wd != nil {
		hb = wd.Register("core-acceptor")
	}
	rr := 0
	now := time.Now()
	for {
		select {
		case <-s.stopping:
			return
		case <-s.draining:
			return // drain: stop accepting; shards finish in-flight work
		default:
		}
		// A gated acceptor parks here too, the rest of its backoff as the
		// timeout (Stop and Drain Wakeup it), outside any heartbeat span:
		// parked, not wedged.
		evs, err := s.acceptor.Wait(ln.WaitMs(now, -1))
		if err != nil {
			return
		}
		if hb != nil {
			hb.Begin()
		}
		now = time.Now()
		if len(evs) > 0 { // the listener, the only thing registered
			if fd := s.accept(ln, s.acceptStats, s.obsAccept, now); fd >= 0 {
				s.shards[rr%len(s.shards)].give(fd, now)
				rr++
			}
		}
		if hb != nil {
			hb.End()
		}
		if ln.FD() < 0 {
			return // listener broken: the shards keep serving what is open
		}
	}
}

// newListener wraps a socket NewServer bound, for the accepting thread
// on lane: its accept edge, with its own copy of the static 503.
func newListener(lane sysfault.Lane, lfd int) *reactor.Listener {
	return reactor.NewListener(lane, lfd, httpwire.NewRefusal(shedRetryAfterSec, ""))
}

// shedRetryAfterSec is the Retry-After advertised on sheds not governed
// by an admission controller (the static MaxConns ceiling).
const shedRetryAfterSec = 1

// docrootPressureEvictions is how many cached entries (and so shared
// file descriptors) the accepting thread asks the docroot to give back
// per EMFILE event — enough to make real room, small enough not to
// dump a warm cache over one transient spike.
const docrootPressureEvictions = 8

// accept answers one readiness event on ln (reactor.Listener has the
// policy) for the accepting thread — a reuseport shard, or the fan-out
// acceptor — whose counters and view st and v are. It returns the
// connection to hand off, already holding its connsOpen slot, or -1 when
// the event produced none: nothing pending, absorbed by the listener, or
// shed — all counted here.
func (s *Server) accept(ln *reactor.Listener, st *statBlock, v *obs.View, now time.Time) int {
	r := ln.Accept(now)
	if r.FD < 0 {
		if r.Exhausted {
			st.acceptEMFILE.add(1)
			// Cached content pins file descriptors; giving some back
			// attacks the exhaustion itself rather than just the symptom.
			if dr := s.cfg.Docroot; dr != nil {
				dr.ShedFDs(docrootPressureEvictions)
			}
		}
		if r.Refused {
			countShed(st, v)
		}
		if r.Gated {
			st.acceptBackoffs.add(1)
		}
		return -1
	}
	st.accepted.add(1)
	// Adaptive admission first: the controller's token bucket paces
	// accepts against its latency target. Shed clients are told when to
	// come back.
	if ac := s.cfg.Admission; ac != nil && !ac.Admit() {
		countShed(st, v)
		ln.Refuse(r.FD, httpwire.AppendRefusal(nil, ac.RetryAfterSeconds(), ""))
		return -1
	}
	// MaxConns stays as the hard ceiling above the controller.
	if !s.tryAcquireConn() {
		countShed(st, v)
		ln.Refuse(r.FD, nil)
		return -1
	}
	return r.FD
}

func countShed(st *statBlock, v *obs.View) {
	st.shed.add(1)
	if v != nil {
		v.Record(0, obs.Shed, 0)
	}
}

// outSeg is one element of a connection's pending output: either a byte
// slice (headers, in-memory bodies) or a file range delivered zero-copy
// with sendfile(2). A file segment pins its docroot entry — and so the
// shared fd — until the range is fully sent or the connection dies.
type outSeg struct {
	buf []byte
	// ent is non-nil for a sendfile segment; off is the next unsent
	// file offset (advanced by the kernel on every call, so it is always
	// the resume point after a partial write) and end is one past the
	// last byte.
	ent *docroot.Entry
	off int64
	end int64
	// fallback flips a file segment from sendfile(2) to buffered
	// delivery after the kernel refuses the fast path (EINVAL/EIO):
	// each pass re-reads the file at off and writes it, so the
	// response bytes stay exact across the switch and across partial
	// writes. off/end keep their meaning; sendfile is never retried on
	// this segment.
	fallback bool
	// eor marks the last segment of a reply: the write that completes it
	// pushes whatever is queued behind it (see flush).
	eor bool
}

// conn is the per-connection state owned by exactly one shard.
//
//nio:loop-owned
type conn struct {
	fd     int
	parser httpwire.Parser
	// out is the pending response segment queue: each segment is written
	// non-blockingly; when the socket fills we keep the position and
	// wait for writability.
	out []outSeg
	// outBase is out's backing array from its first slot, empty: flush
	// pops by re-slicing out forward, which gives the capacity away, so a
	// drained queue restarts here instead of growing a new array per
	// batch. outInline is that array until a pipelined batch outgrows it.
	outBase   []outSeg
	outInline [2]outSeg
	// hbuf is the arena response heads are serialized into; queued head
	// segments are sub-slices of it, so it is rewound only when the queue
	// has drained (an append that moves it leaves the queued heads on the
	// old array, which they keep alive).
	hbuf     []byte
	outOff   int  // sent bytes of the head segment's buf
	writeArm bool // EPOLLOUT currently requested
	// corked is whether the last write on the socket carried MSG_MORE:
	// the kernel may be holding a partial segment for a successor (see
	// flush). Only the invariant build reads it.
	corked  bool
	closing bool // close once out drains (400, Connection: close, or the peer half-closed)
	// peerDone is whether the peer owes us nothing more: it half-closed,
	// or a completely parsed request asked for the close and the read that
	// brought it left the socket and the parser empty. Only then may the
	// close itself push the last segment (see flush): close(2) on a socket
	// with unread input resets the connection and purges what is unsent.
	peerDone bool
	closed   bool // torn down; output must never be queued again
	// wheeled marks the connection as filed in its shard's timer wheel
	// (at most one entry per connection; see wheel.go).
	wheeled bool
	replies int64
	// lastActive is when the connection last made progress; the idle
	// policy (only armed when Config.IdleTimeout > 0) compares it.
	lastActive time.Time
	// acceptedAt is when the connection was accepted; observed flips
	// once the accept-to-first-response latency has been reported to
	// the admission controller (once per connection).
	acceptedAt time.Time
	observed   bool
	// headerStart, when non-zero, is when the connection started owing
	// us a complete request: set at accept and whenever a partial
	// request is buffered, cleared once a request completes and nothing
	// partial remains. The header policy (armed when
	// Config.HeaderTimeout > 0) resets connections that exceed it.
	headerStart time.Time
	// Observability-plane state, only maintained when Config.Obs is set:
	// the plane-assigned connection id, the first-byte-of-request and
	// handler-start stamps the phase clocks run from, the serve-complete
	// stamp the write phase closes against, and whether the first
	// response byte has been traced.
	obsID        uint64
	reqStart     time.Time
	handlerStart time.Time
	serveDone    time.Time
	firstByte    bool
}

// headArenaBytes holds three store heads or two docroot ones (with
// validators); headArenaKeep is the most an idle connection may keep of
// an arena a long batch grew.
const (
	headArenaBytes = 512
	headArenaKeep  = 16 << 10
)

// push queues one output segment.
func (c *conn) push(seg outSeg) {
	grows := len(c.out) == cap(c.out)
	c.out = append(c.out, seg)
	if grows {
		c.outBase = c.out[:0] // append moved the pending segments to the front of a new array
	}
}

// endReply marks the segment queued last as the end of its reply.
func (c *conn) endReply() { c.out[len(c.out)-1].eor = true }

// pushHead serializes one response head into the arena and queues it.
func (c *conn) pushHead(code int, contentType string, contentLen int64, keepAlive bool, etag, lastModified string) {
	if c.hbuf == nil {
		c.hbuf = make([]byte, 0, headArenaBytes)
	}
	at := len(c.hbuf)
	c.hbuf = httpwire.AppendResponseHeaderValidators(c.hbuf, code, contentType, contentLen, keepAlive, etag, lastModified)
	c.push(outSeg{buf: c.hbuf[at:len(c.hbuf):len(c.hbuf)]})
}

// pop drops the fully sent head segment; a drained queue rewinds to the
// front of its array and of the head arena.
//
//nio:hot
func (c *conn) pop() {
	c.out[0] = outSeg{}
	c.out = c.out[1:]
	if len(c.out) == 0 {
		c.out = c.outBase
		if cap(c.hbuf) > headArenaKeep {
			c.hbuf = nil
		} else {
			c.hbuf = c.hbuf[:0]
		}
	}
}

// shard is one reactor event loop: its own poller (epoll fd + wakeup
// pipe), its own connection table, timer wheel, scratch buffers,
// counters, observability view, and deterministic fault lane. In
// reuseport mode it also owns a listener and accepts directly; under
// fan-out it receives accepted fds over its SPSC ring.
type shard struct {
	srv    *Server
	idx    int
	lane   sysfault.Lane
	poller *reactor.Poller
	// stats is this shard's counter block (merged by Server.Stats).
	stats *statBlock
	// obs is this shard's observability view: trace ring and kind
	// counts are shared (lock-free), phase histograms are per-shard
	// blocks merged at read time. nil when Config.Obs is nil.
	obs *obs.View
	// ln is this shard's own SO_REUSEPORT listener; under fan-out, where
	// the acceptor thread accepts, one that is closed from birth.
	ln *reactor.Listener
	// ring is the SPSC handoff from the acceptor (fan-out mode; nil in
	// reuseport mode).
	ring *spscRing
	// conns is this loop's connection table — the state reactor
	// sharding partitions, so it must never be touched off-loop.
	//nio:loop-owned
	conns map[int]*conn
	//nio:loop-owned
	buf []byte
	// fbuf is the lazily-allocated scratch for buffered sendfile
	// fallback (never aliased by the parser, unlike buf).
	//nio:loop-owned
	fbuf []byte
	//nio:loop-owned
	reqs []*httpwire.Request
	// now is the loop's clock: read once per iteration, when Wait
	// returns, and used for every stamp whose consumer is a timeout or
	// the accept gate (lastActive, headerStart, the wheel, the gate).
	// It runs behind the wall clock by at most the batch being handled.
	//nio:loop-owned
	now time.Time
	// free holds torn-down conn structs for adopt to reuse, each with
	// its head arena; retired holds the ones torn down in the current
	// event batch, which join free only when the batch is over — so a
	// struct can never come back, on a recycled fd number, while a
	// caller up the stack still compares it against the table.
	//nio:loop-owned
	free []*conn
	//nio:loop-owned
	retired []*conn
	// draining is set once the server enters Drain: no new reads, flush
	// pending output, close as connections empty.
	//nio:loop-owned
	draining bool
	// hb is this reactor thread's watchdog heartbeat (nil when no
	// watchdog is configured). Spans bracket work, not the poller wait,
	// so a parked-but-healthy loop is never flagged.
	hb *overload.Heartbeat
	// loopTicks counts event-loop iterations so the invariant build can
	// amortize its O(conns) interest-set audit instead of paying it on
	// every pass through the hot loop.
	//nio:loop-owned
	loopTicks uint64
	// wheel is this shard's timer wheel (nil when neither timeout knob
	// is configured).
	//nio:loop-owned
	wheel *timerWheel
}

func newShard(s *Server, idx int) (*shard, error) {
	lane := sysfault.Lane(0)
	if s.cfg.Shards > 0 {
		// Shard i draws fault decisions from lane i: independent
		// deterministic streams per loop, with shard 0 on the legacy
		// stream so a single-shard server replays byte-identically to
		// the pre-sharding server. Legacy Workers mode keeps every
		// loop on lane 0, the historical behavior.
		lane = sysfault.Lane(idx)
	}
	p, err := reactor.NewPollerLane(1024, lane)
	if err != nil {
		return nil, err
	}
	w := &shard{
		srv:    s,
		idx:    idx,
		lane:   lane,
		poller: p,
		stats:  &statBlock{},
		conns:  make(map[int]*conn),
		buf:    make([]byte, s.cfg.ReadBuf),
		now:    time.Now(),
	}
	w.wheel = newTimerWheel(s.cfg, w.now)
	if pl := s.cfg.Obs; pl != nil {
		w.obs = pl.View(idx)
	}
	if s.fanout {
		w.ring = newSPSCRing(4096)
		w.ln = reactor.NewListener(lane, -1, nil)
	} else {
		w.ln = s.lns[idx]
		if err := w.ln.Arm(p); err != nil {
			p.Close()
			return nil, err
		}
	}
	if wd := s.cfg.Watchdog; wd != nil {
		w.hb = wd.Register(fmt.Sprintf("core-worker-%d", idx))
	}
	return w, nil
}

// pendingConn is an accepted fd in flight to a shard, stamped with its
// accept time so the admission controller's latency clock covers the
// ring wait as well as the event-loop lag.
type pendingConn struct {
	fd int
	at time.Time
}

// give transfers an accepted fd to this shard (called from the acceptor
// thread; Selector.wakeup semantics), stamped with the acceptor's clock.
// The acceptor has already counted the connection in connsOpen, so every
// failure path must uncount it.
func (w *shard) give(fd int, at time.Time) {
	if !w.ring.push(pendingConn{fd: fd, at: at}) {
		// Ring overflow: shed the connection rather than block the
		// acceptor; this mirrors a full pending-registration queue.
		reactor.CloseFD(0, fd)
		w.srv.connsOpen.add(-1)
		return
	}
	w.poller.Wakeup()
}

// loop is the shard thread body: a classic reactor loop.
//
//nio:loop
func (w *shard) loop() {
	defer w.srv.wg.Done()
	defer w.shutdown()
	for {
		if w.hb != nil {
			w.hb.Begin()
		}
		w.drainInbox()
		if invariant.Enabled {
			// The full interest-set audit is O(conns); sample it so the
			// invariant build keeps enough throughput for the perf-gated
			// tests to stay meaningful.
			if w.loopTicks%64 == 0 {
				w.assertInterest()
			}
			w.loopTicks++
		}
		select {
		case <-w.srv.stopping:
			return
		default:
		}
		if !w.draining {
			select {
			case <-w.srv.draining:
				w.beginDrain()
			default:
			}
		}
		if w.draining && len(w.conns) == 0 {
			return // drained: every in-flight response has flushed
		}
		// The poller wait is a legitimate park, not work: close the
		// heartbeat span so an idle loop is never mistaken for a wedge.
		if w.hb != nil {
			w.hb.End()
		}
		evs, err := w.poller.Wait(w.waitMs(w.now))
		if err != nil {
			return
		}
		if w.hb != nil {
			w.hb.Begin()
		}
		w.now = time.Now()
		w.advanceWheel(w.now)
		for _, ev := range evs {
			if ev.FD == w.ln.FD() {
				if fd := w.srv.accept(w.ln, w.stats, w.obs, w.now); fd >= 0 {
					w.adopt(fd, w.now)
				}
				continue
			}
			c, ok := w.conns[ev.FD]
			if !ok {
				continue
			}
			if ev.Hangup {
				w.closeConn(c)
				continue
			}
			if ev.Readable && !w.draining {
				w.readable(c)
			}
			if c2, still := w.conns[ev.FD]; still && c2 == c && ev.Writable {
				w.writable(c)
			}
		}
		if len(w.retired) > 0 {
			w.free = append(w.free, w.retired...)
			clear(w.retired)
			w.retired = w.retired[:0]
		}
	}
}

// waitMs bounds the poller wait: one wheel tick while timers are
// pending, the gate remainder while the listener is gated (re-arming it
// when that has run out), else block indefinitely (pure event-driven
// park).
func (w *shard) waitMs(now time.Time) int {
	ms := -1
	if wh := w.wheel; wh != nil && wh.count > 0 {
		ms = int(wh.tick.Milliseconds())
		if ms < 1 {
			ms = 1
		}
	}
	return w.ln.WaitMs(now, ms)
}

// maxFreeConns bounds a shard's free list (free and retired together):
// what a burst of closes leaves beyond it goes to the collector.
const maxFreeConns = 256

// adopt registers a freshly accepted (or ring-delivered) connection
// with this shard: conn state, poller interest, observability birth
// events, and its first timer-wheel deadline. at is the accept stamp;
// for ring deliveries the gap to now is the fan-out ride the
// queue-wait phase accounts for.
func (w *shard) adopt(fd int, at time.Time) {
	v := w.obs
	var waited time.Duration
	if v != nil {
		waited = time.Since(at) // its own read: the ring ride crosses threads
	}
	if err := w.poller.Add(fd, true, false); err != nil {
		reactor.CloseFD(w.lane, fd)
		w.srv.connsOpen.add(-1)
		return
	}
	var c *conn
	if n := len(w.free); n > 0 {
		c = w.free[n-1]
		w.free[n-1] = nil
		w.free = w.free[:n-1]
		*c = conn{hbuf: c.hbuf[:0]}
	} else {
		c = new(conn)
	}
	c.fd, c.lastActive, c.headerStart, c.acceptedAt = fd, w.now, w.now, at
	c.outBase = c.outInline[:0]
	c.out = c.outBase
	w.conns[fd] = c
	if v != nil {
		c.obsID = v.NextConnID()
		v.Record(c.obsID, obs.Accept, 0)
		v.Record(c.obsID, obs.QueueWait, waited)
	}
	w.scheduleTimeout(c, w.now)
}

// retire ends a torn-down connection's user-space life: its docroot
// references go back and the struct, with its head arena, waits for the
// event batch to end before adopt may reuse it (see shard.retired). One
// still filed in the timer wheel is left there; fireSlot retires it when
// its slot comes round.
func (w *shard) retire(c *conn) {
	releaseOut(c)
	if !c.wheeled && len(w.free)+len(w.retired) < maxFreeConns {
		w.retired = append(w.retired, c)
	}
}

// assertInterest checks the reactor's connection table against the
// poller's interest-set shadow — only under -tags invariants, where the
// shadow is real. Every registered connection must be in the kernel's
// interest set, and the set must hold exactly the connections plus the
// wakeup pipe (plus this shard's listener when it is armed); drift
// either way means events for a connection the shard no longer owns,
// or a connection that can never wake again.
func (w *shard) assertInterest() {
	for fd := range w.conns {
		invariant.Assertf(w.poller.HasInterest(fd),
			"core: conn fd %d in table but missing from epoll interest set", fd)
	}
	expected := len(w.conns) + 1
	if w.ln.FD() >= 0 && !w.ln.Gated() {
		expected++
	}
	invariant.Assertf(w.poller.InterestCount() == expected,
		"core: epoll interest set has %d fds, want %d",
		w.poller.InterestCount(), expected)
}

// beginDrain flips the shard into drain mode: the listener closes,
// idle connections close immediately; connections with queued output
// stop reading (their read interest is dropped) and close once their
// responses flush.
func (w *shard) beginDrain() {
	w.draining = true
	w.ln.Close()
	for _, c := range w.conns {
		if len(c.out) == 0 {
			w.closeConn(c)
			continue
		}
		c.closing = true
		c.writeArm = true
		_ = w.poller.Modify(c.fd, false, true)
	}
}

func (w *shard) shutdown() {
	for _, c := range w.conns {
		reactor.CloseFD(w.lane, c.fd)
		w.srv.connsOpen.add(-1)
		if v := w.obs; v != nil && c.obsID != 0 {
			v.Record(c.obsID, obs.Close, 0)
		}
		releaseOut(c)
	}
	w.conns = nil
	w.ln.Close()
	// Connections handed over but never registered still hold a
	// connsOpen slot; release them too.
	if w.ring != nil {
		for {
			p, ok := w.ring.pop()
			if !ok {
				break
			}
			reactor.CloseFD(w.lane, p.fd)
			w.srv.connsOpen.add(-1)
		}
	}
	w.poller.Close()
}

// drainInbox adopts every fd the acceptor has pushed onto the SPSC
// ring (fan-out mode only; reuseport shards accept for themselves).
func (w *shard) drainInbox() {
	if w.ring == nil {
		return
	}
	for {
		p, ok := w.ring.pop()
		if !ok {
			return
		}
		if w.draining {
			// Raced in just as the drain began: shed it.
			reactor.CloseFD(w.lane, p.fd)
			w.srv.connsOpen.add(-1)
			continue
		}
		w.adopt(p.fd, p.at)
	}
}

// readable reads what the socket holds and serves every parsed request.
// One read(2) per wake unless it filled the buffer: the poller is
// level-triggered, so whatever a short read left behind (including the
// tail of a fault-truncated read) reports again on the next Wait, and a
// second read just to collect EAGAIN is a syscall per request for
// nothing.
func (w *shard) readable(c *conn) {
	v := w.obs
	c.lastActive = w.now
	// halfClosed: the peer sent its FIN. askedClose: a request parsed in
	// this wake asked for the close. emptied: the last read came back
	// short (or EAGAIN), so the socket's receive queue was empty then.
	halfClosed, askedClose, emptied := false, false, false
	for {
		n, eof, again, err := reactor.Read(w.lane, c.fd, w.buf)
		if err != nil {
			w.closeConn(c)
			return
		}
		if eof {
			if len(c.out) == 0 {
				w.closeConn(c)
				return
			}
			// The peer finished sending (shutdown(SHUT_WR), or a FIN in
			// the same wake as its last request) but is still owed what
			// is queued: deliver it, then close.
			c.closing = true
			halfClosed = true
			break
		}
		if again {
			emptied = true
			break
		}
		if v != nil && n > 0 && c.reqStart.IsZero() {
			c.reqStart = time.Now()
			v.Record(c.obsID, obs.HeaderRead, 0)
		}
		w.reqs = w.reqs[:0]
		reqs, perr := c.parser.Feed(w.reqs, w.buf[:n])
		w.reqs = reqs
		panicked := false
		for _, req := range reqs {
			if v != nil {
				now := time.Now()
				v.Record(c.obsID, obs.Parse, now.Sub(c.reqStart))
				// Pipelined followers in the same batch parse from here,
				// so their parse phase reflects only their own cost.
				c.reqStart = now
				c.handlerStart = now
			}
			if !w.serveSafe(c, req) {
				panicked = true
				if v != nil {
					v.Record(c.obsID, obs.Panic, 0)
				}
				break
			}
			if v != nil {
				// Recorded after serve bumps Stats.Replies, so at any
				// instant the handler-phase count never exceeds replies —
				// the internal-consistency contract the admin scrapers
				// assert under load.
				now := time.Now()
				v.Record(c.obsID, obs.Handler, now.Sub(c.handlerStart))
				c.serveDone = now
			}
			askedClose = askedClose || !req.KeepAlive
		}
		if panicked {
			// The isolation path queued a 500 and marked the connection
			// closing; skip further reads and let flush deliver it.
			break
		}
		if perr != nil {
			w.stats.badRequest.add(1)
			c.pushHead(400, "text/plain", 0, false, "", "")
			c.endReply()
			c.closing = true
			break
		}
		if n < len(w.buf) {
			emptied = true
			break
		}
	}
	// A panic or a parse error left the loop before emptied was set: what
	// the peer still has in flight behind either is unknown.
	c.peerDone = halfClosed || (askedClose && emptied && !c.parser.Pending())
	// Header clock: a buffered partial request keeps (or starts) the
	// clock; a clean boundary stops it — between requests only the idle
	// policy applies.
	if c.parser.Pending() {
		if c.headerStart.IsZero() {
			c.headerStart = c.lastActive
		}
	} else {
		c.headerStart = time.Time{}
		c.reqStart = time.Time{}
	}
	w.flush(c)
	if c2, still := w.conns[c.fd]; still && c2 == c {
		if halfClosed {
			// Still open means the flush blocked with write interest
			// armed. EOF stays readable forever; drop read interest so
			// the loop parks until the socket drains.
			_ = w.poller.Modify(c.fd, false, true)
		}
		w.scheduleTimeout(c, w.now)
	}
}

// serveSafe serves one request with panic isolation: a panicking handler
// costs its own connection a best-effort 500 and a close — never the
// process, and never the shard's other connections. It reports whether
// the connection may continue serving pipelined requests.
func (w *shard) serveSafe(c *conn, req *httpwire.Request) (ok bool) {
	mark := len(c.out)
	defer func() {
		if r := recover(); r != nil {
			// Drop whatever the handler partially queued — releasing any
			// docroot references it pinned — and answer with a 500 that
			// closes the connection.
			for i := mark; i < len(c.out); i++ {
				if c.out[i].ent != nil {
					c.out[i].ent.Release()
					c.out[i].ent = nil
				}
			}
			c.out = c.out[:mark]
			c.pushHead(500, "text/plain", 0, false, "", "")
			c.endReply()
			c.closing = true
			c.replies++
			w.stats.replies.add(1)
			w.stats.handlerPanics.add(1)
			ok = false
		}
	}()
	w.serve(c, req)
	return true
}

// applyFault executes an injected fault on the reactor thread — exactly
// where handler work runs in this architecture, so a Delay or Spin
// stalls the owning loop (the architecture's honest cost model for
// handler work) and a Wedge is precisely what the watchdog exists to
// flag.
func (w *shard) applyFault(f Fault) {
	if f.Delay > 0 {
		time.Sleep(f.Delay) //nio:ok loopblock -- injected fault: stalling the loop is the point
	}
	if f.Spin > 0 {
		// Busy-burn, not sleep: the shard-scaling sweep needs handler
		// cost that consumes a real core, so N shards on N cores can
		// honestly multiply throughput where sleeping handlers would
		// overlap arbitrarily on one.
		for end := time.Now().Add(f.Spin); time.Now().Before(end); {
		}
	}
	if f.Wedge != nil {
		select { //nio:ok loopblock -- injected wedge: the watchdog test drives this
		case <-f.Wedge:
		case <-w.srv.stopping:
		}
	}
	if f.Panic {
		panic("core: injected handler panic")
	}
}

// serve appends one response to the connection's output queue.
func (w *shard) serve(c *conn, req *httpwire.Request) {
	if invariant.Enabled {
		invariant.Assertf(!c.closed, "core: response queued on closed conn fd %d", c.fd)
	}
	if ff := w.srv.cfg.HandlerFault; ff != nil {
		w.applyFault(ff(req.Path))
	}
	switch {
	case req.Method != "GET" && req.Method != "HEAD":
		c.pushHead(501, "text/plain", 0, req.KeepAlive, "", "")
	case w.srv.cfg.Docroot != nil:
		w.serveDocroot(c, req)
	default:
		w.serveStore(c, req)
	}
	c.endReply()
	c.replies++
	w.stats.replies.add(1)
	if !req.KeepAlive {
		c.closing = true
	}
}

// serveStore resolves the path against the store and queues 200/404.
func (w *shard) serveStore(c *conn, req *httpwire.Request) {
	body, ctype, ok := w.srv.cfg.Store.Get(req.Path)
	if !ok {
		w.stats.notFound.add(1)
		c.pushHead(404, "text/plain", 0, req.KeepAlive, "", "")
	} else {
		c.pushHead(200, ctype, int64(len(body)), req.KeepAlive, "", "")
		if req.Method == "GET" && len(body) > 0 {
			c.push(outSeg{buf: body})
		}
	}
}

// serveDocroot resolves the path against the disk-backed docroot and
// queues 200/304/404. Bodies cached in memory are queued as byte
// segments (buffered copy); everything else becomes a sendfile segment
// holding a reference to the entry's shared fd.
func (w *shard) serveDocroot(c *conn, req *httpwire.Request) {
	ent, err := w.srv.cfg.Docroot.Get(req.Path)
	if err != nil {
		w.docrootError(c, req, err)
		return
	}
	if httpwire.NotModified(req, ent.ETag, ent.ModTime) {
		w.stats.notModified.add(1)
		c.pushHead(304, ent.ContentType, 0, req.KeepAlive, ent.ETag, ent.LastModified)
		ent.Release()
		return
	}
	c.pushHead(200, ent.ContentType, ent.Size, req.KeepAlive, ent.ETag, ent.LastModified)
	if req.Method != "GET" || ent.Size == 0 {
		ent.Release()
		return
	}
	if body := ent.Body(); body != nil {
		// Buffered path: the immutable body slice outlives the entry, so
		// the reference can be dropped immediately.
		c.push(outSeg{buf: body})
		ent.Release()
		return
	}
	// Zero-copy path: the segment owns the reference until fully sent.
	c.push(outSeg{ent: ent, off: 0, end: ent.Size})
}

// docrootError answers a request whose Root.Get failed. Only a path
// with no servable file is a 404. Out of descriptors is the server's
// condition, not the file's: the cache gives some back and the client
// is told to retry, as on an accept that hit the same wall. Anything
// else (EIO, ELOOP, EACCES, a file truncated under the read) is a 500
// that closes the connection, like a handler panic; docroot.Stats
// counts both kinds.
func (w *shard) docrootError(c *conn, req *httpwire.Request, err error) {
	switch {
	case docroot.NotFound(err):
		w.stats.notFound.add(1)
		c.pushHead(404, "text/plain", 0, req.KeepAlive, "", "")
	case docroot.FDExhausted(err):
		w.srv.cfg.Docroot.ShedFDs(docrootPressureEvictions)
		c.push(outSeg{buf: httpwire.AppendResponseHeaderExtra(nil, 503, "text/plain", 0, req.KeepAlive,
			httpwire.Header{Name: "Retry-After", Value: strconv.Itoa(shedRetryAfterSec)})})
	default:
		c.pushHead(500, "text/plain", 0, false, "", "")
		c.closing = true
	}
}

// sendfileChunk bounds one sendfile call so a single huge file cannot
// monopolize the reactor thread: after each chunk the loop re-checks
// for EAGAIN and other connections get their turn on the next wait.
const sendfileChunk = 512 << 10

// flush writes queued output until the socket would block, then toggles
// write interest accordingly — the NIO write-readiness pattern. Byte
// segments go through write(2) (resume point c.outOff); file segments
// go through sendfile(2), whose kernel-advanced offset is its own
// resume point, so a response interrupted mid-file continues exactly
// where the socket buffer filled.
//
// The cork rule: a byte write that does not complete its reply — a
// header with a body or file range queued behind it, or a buffered-
// fallback chunk with more of its file to come — carries MSG_MORE, and
// the write that completes the reply pushes. Header and body so leave
// as one segment and wake the reader once, at the same syscall count,
// while a finished reply is never held back for the next one in a
// pipelined batch.
//
// The third clause corks through the close: the write of the queue's
// last segment is flagged too when the connection closes the moment the
// queue drains AND the peer owes us nothing (conn.peerDone) — close(2)
// then sets the FIN on the held segment, so a Connection: close reply
// and its FIN leave as one segment and wake the client once. Every
// other close (400, 500, handler panic, drain with input unread) pushes
// first: close(2) on a socket with unread input sends a reset and
// purges what is unsent, and a corked reply would be lost with it.
//
// The flag depends only on the queue (outSeg.eor) and on what readable
// learnt of the peer, a flagged segment always has its successor — a
// segment or the close — behind it, and every exit that leaves a
// flagged write last either closes the socket or has EPOLLOUT armed, so
// no cork is left to the kernel's 200 ms timer.
//
//nio:hot
func (w *shard) flush(c *conn) {
	if invariant.Enabled {
		invariant.Assertf(!c.closed, "core: flush on closed conn fd %d", c.fd)
		defer w.assertNoOrphanCork(c)
	}
	v := w.obs
	for len(c.out) > 0 {
		seg := &c.out[0]
		if seg.ent != nil && !seg.fallback {
			max := sendfileChunk
			if rem := seg.end - seg.off; int64(max) > rem {
				max = int(rem)
			}
			n, again, err := reactor.Sendfile(w.lane, c.fd, seg.ent.FD(), &seg.off, max)
			if err != nil {
				if errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) {
					// The peer is gone; nothing to deliver to.
					w.stats.writeResets.add(1)
					w.closeConn(c)
					return
				}
				// Anything else (EINVAL/EIO: the fs or the kernel refusing
				// the fast path) downgrades this segment to buffered
				// delivery from the same resume offset — a failing
				// sendfile(2) never advances *off, so not one response
				// byte is skipped or repeated.
				w.stats.sendfileFallbacks.add(1)
				seg.fallback = true
				continue
			}
			if n > 0 {
				// sendfile(2) pushes at the end of what it sent, and with
				// it any byte segment corked in front.
				c.corked = false
			}
			w.stats.bytesOut.add(int64(n))
			w.stats.sendfileBytes.add(int64(n))
			if v != nil && n > 0 && !c.firstByte {
				c.firstByte = true
				v.Record(c.obsID, obs.FirstByte, time.Since(c.acceptedAt))
			}
			if seg.off >= seg.end {
				seg.ent.Release()
				c.pop()
				continue
			}
			if again || n == 0 {
				w.armWrite(c)
				return
			}
			continue // partial progress without EAGAIN: keep pushing
		}
		if seg.ent != nil {
			// Buffered fallback for a failed sendfile segment: read the
			// next chunk at the resume offset and push it through the
			// ordinary non-blocking write path. A partial write just
			// advances off; the next pass re-reads from there, so
			// idempotence is free.
			if !w.flushFallback(c, seg, v) {
				return
			}
			continue
		}
		head := seg.buf[c.outOff:]
		n, again, err := w.write(c, head, !seg.eor || c.finRides())
		if err != nil {
			if errors.Is(err, syscall.ENOBUFS) {
				// Transient kernel buffer exhaustion is a stall, not a
				// failure: keep the queue, re-arm write interest, retry
				// when the loop next signals writability.
				w.stats.writeStalls.add(1)
				w.armWrite(c)
				return
			}
			if errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) {
				w.stats.writeResets.add(1)
			}
			w.closeConn(c)
			return
		}
		w.stats.bytesOut.add(int64(n))
		if v != nil && n > 0 && !c.firstByte {
			c.firstByte = true
			v.Record(c.obsID, obs.FirstByte, time.Since(c.acceptedAt))
		}
		if n == len(head) {
			c.pop()
			c.outOff = 0
			continue
		}
		c.outOff += n
		if again || n < len(head) {
			w.armWrite(c)
			return
		}
	}
	// Drained.
	if v != nil && !c.serveDone.IsZero() {
		// The write phase closes when the queue drains: for pipelined
		// batches this is one record per batch, clocked from the last
		// serve — the honest cost of pushing the batch out the socket.
		v.Record(c.obsID, obs.WriteComplete, time.Since(c.serveDone))
		c.serveDone = time.Time{}
	}
	w.observeFirst(c)
	if c.closing {
		w.closeConn(c)
		return
	}
	if c.writeArm {
		c.writeArm = false
		_ = w.poller.Modify(c.fd, true, false)
	}
}

// finRides reports whether the segment at the head of the queue is the
// connection's last and its close may do the pushing (the cork rule's
// third clause, see flush).
//
//nio:hot
func (c *conn) finRides() bool { return c.peerDone && c.closing && len(c.out) == 1 }

// write is one non-blocking write of p to c's socket; more says p does
// not complete its reply, or that the close right behind it will push it
// (the cork rule, see flush).
//
//nio:hot
func (w *shard) write(c *conn, p []byte, more bool) (n int, again bool, err error) {
	c.corked = more
	if more {
		return reactor.WriteMore(w.lane, c.fd, p)
	}
	return reactor.Write(w.lane, c.fd, p)
}

// assertNoOrphanCork is flush's exit check under -tags invariants: a
// flagged write may be the socket's last only if the loop is certain to
// follow it — EPOLLOUT armed — or the socket is closed (close pushes).
func (w *shard) assertNoOrphanCork(c *conn) {
	invariant.Assertf(!c.corked || c.writeArm || c.closed,
		"core: flush left fd %d corked with no write interest armed", c.fd)
}

// fallbackChunk bounds one buffered-fallback read+write so a degraded
// response cannot monopolize the reactor thread any more than a
// healthy sendfile one can.
const fallbackChunk = 64 << 10

// flushFallback pushes one chunk of a downgraded file segment (see
// outSeg.fallback). It reports whether flush may continue with the
// queue; false means the connection was torn down or the socket
// blocked (write interest armed) and flush must return.
func (w *shard) flushFallback(c *conn, seg *outSeg, v *obs.View) bool {
	if w.fbuf == nil {
		w.fbuf = make([]byte, fallbackChunk)
	}
	chunk := w.fbuf
	if rem := seg.end - seg.off; rem < int64(len(chunk)) {
		chunk = chunk[:rem]
	}
	rn, rerr := seg.ent.ReadAt(chunk, seg.off)
	if rn == 0 {
		// Cannot even read the file any more: the response cannot be
		// completed honestly, so the connection must die rather than
		// deliver a short body that looks complete.
		_ = rerr
		w.closeConn(c)
		return false
	}
	more := seg.off+int64(rn) < seg.end || c.finRides() // a file range always ends its reply
	n, again, err := w.write(c, chunk[:rn], more)
	if err != nil {
		if errors.Is(err, syscall.ENOBUFS) {
			w.stats.writeStalls.add(1)
			w.armWrite(c)
			return false
		}
		if errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) {
			w.stats.writeResets.add(1)
		}
		w.closeConn(c)
		return false
	}
	seg.off += int64(n)
	w.stats.bytesOut.add(int64(n))
	if v != nil && n > 0 && !c.firstByte {
		c.firstByte = true
		v.Record(c.obsID, obs.FirstByte, time.Since(c.acceptedAt))
	}
	if seg.off >= seg.end {
		seg.ent.Release()
		c.pop()
		return true
	}
	if again || n < rn {
		w.armWrite(c)
		return false
	}
	return true
}

// observeFirst feeds the admission controller the connection's
// accept-to-first-response latency, once, when its first response has
// fully left the socket. First-response latency captures the event-loop
// lag an overloaded reactor accrues — the signal the AIMD loop steers by.
func (w *shard) observeFirst(c *conn) {
	if c.observed || c.replies == 0 {
		return
	}
	c.observed = true
	if ac := w.srv.cfg.Admission; ac != nil {
		ac.Observe(time.Since(c.acceptedAt))
	}
}

// armWrite enables EPOLLOUT for a connection whose socket buffer is
// full.
func (w *shard) armWrite(c *conn) {
	if !c.writeArm {
		c.writeArm = true
		_ = w.poller.Modify(c.fd, true, true)
	}
}

// writable continues a blocked flush, then re-arms the idle clock if
// the queue drained (a blocked writer leaves the wheel; see
// connDeadline).
func (w *shard) writable(c *conn) {
	w.flush(c)
	if c2, still := w.conns[c.fd]; still && c2 == c {
		w.scheduleTimeout(c, w.now)
	}
}

// resetConn tears a connection down with an RST.
func (w *shard) resetConn(c *conn) {
	if _, ok := w.conns[c.fd]; !ok {
		return
	}
	delete(w.conns, c.fd)
	w.poller.Forget(c.fd)
	reactor.CloseWithReset(w.lane, c.fd)
	c.closed = true
	if v := w.obs; v != nil && c.obsID != 0 {
		v.Record(c.obsID, obs.Close, 0)
	}
	w.uncount()
	w.retire(c)
}

func (w *shard) closeConn(c *conn) {
	if _, ok := w.conns[c.fd]; !ok {
		return
	}
	delete(w.conns, c.fd)
	w.poller.Forget(c.fd)
	reactor.CloseFD(w.lane, c.fd)
	c.closed = true
	if v := w.obs; v != nil && c.obsID != 0 {
		v.Record(c.obsID, obs.Close, 0)
	}
	w.uncount()
	w.retire(c)
}

// uncount gives a torn-down connection's connsOpen slot back.
func (w *shard) uncount() {
	w.srv.connsOpen.add(-1)
	if invariant.Enabled {
		invariant.Assertf(w.srv.connsOpen.get() >= 0,
			"core: connsOpen went negative (%d)", w.srv.connsOpen.get())
	}
}

// StatsFields renders a Stats snapshot in the admin endpoint's stable
// field order. The order is part of the /stats text contract (see the
// golden-file tests); append new counters at the end.
func StatsFields(st Stats) []obs.Field {
	return []obs.Field{
		{Name: "accepted", Value: st.Accepted},
		{Name: "replies", Value: st.Replies},
		{Name: "bytes_out", Value: st.BytesOut},
		{Name: "not_found", Value: st.NotFound},
		{Name: "bad_request", Value: st.BadRequest},
		{Name: "conns_open", Value: st.ConnsOpen},
		{Name: "idle_closes", Value: st.IdleCloses},
		{Name: "shed", Value: st.Shed},
		{Name: "header_timeouts", Value: st.HeaderTimeouts},
		{Name: "not_modified", Value: st.NotModified},
		{Name: "sendfile_bytes", Value: st.SendfileBytes},
		{Name: "handler_panics", Value: st.HandlerPanics},
		{Name: "accept_emfile", Value: st.AcceptEMFILE},
		{Name: "accept_backoffs", Value: st.AcceptBackoffs},
		{Name: "write_stalls", Value: st.WriteStalls},
		{Name: "write_resets", Value: st.WriteResets},
		{Name: "sendfile_fallbacks", Value: st.SendfileFallbacks},
	}
}

// releaseOut drops the docroot references held by unsent sendfile
// segments when a connection dies mid-response, so shared fds are not
// pinned by dead connections.
func releaseOut(c *conn) {
	for i := range c.out {
		if c.out[i].ent != nil {
			c.out[i].ent.Release()
			c.out[i].ent = nil
		}
	}
	c.out, c.outBase = nil, nil
	if cap(c.hbuf) > headArenaKeep {
		c.hbuf = nil
	}
}
