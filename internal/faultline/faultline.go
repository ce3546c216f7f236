// Package faultline is an in-process TCP fault-injection proxy and
// deterministic link emulator: it sits between a client (typically
// internal/loadgen) and a live server and manufactures, reproducibly,
// both the degraded-client behaviours the paper's overload figures are
// made of — slow-read clients that dribble request bytes (slowloris),
// stalled readers, abrupt RSTs, half-closes — and the degraded *links*
// the paper's bandwidth-bounded figures run on: token-bucket rate
// shaping, propagation delay, seeded jitter, seeded segment loss and
// reordering, and a bounded drop-tail queue, per direction (see
// link.go for the discipline model).
//
// Each accepted connection is assigned a Profile by the configured Plan
// from a per-connection RNG derived from (Seed, connection index), and
// every per-segment link decision comes from an independent stream
// derived from (Seed, connection index, direction, segment index), so
// an experiment replays bit-for-bit regardless of goroutine scheduling.
// Per-fault counters (internal/metrics.Counter) report how often each
// fault actually fired; per-direction LinkStats report what the
// discipline did to the byte stream.
//
// The proxy deliberately uses net.Conn and goroutines: it plays the
// *network side* of the experiment, where the paper's httperf machines
// and Ethernet switches sat, and is not itself the system under study.
package faultline

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/metrics"
)

// Profile describes the faults applied to one proxied connection. The
// zero value is a transparent, unthrottled pass-through.
type Profile struct {
	// Up and Down are the per-direction link disciplines: Up shapes the
	// client→server (request) path, Down the server→client (response)
	// path. Zero values are transparent.
	Up   Link
	Down Link
	// UpBytesPerSec, when positive, throttles the client→server
	// direction to this rate — the slowloris dribble. Shorthand for
	// Up.RateBytesPerSec (which wins when both are set).
	UpBytesPerSec int
	// DownBytesPerSec, when positive, throttles the server→client
	// direction — a per-connection bandwidth cap, the live analogue of
	// the paper's 100 Mbit/s client links. Shorthand for
	// Down.RateBytesPerSec.
	DownBytesPerSec int
	// StallAfterBytes, when positive, stops draining the server→client
	// direction after this many response bytes: the reader stalls with
	// the response half-delivered, pinning the server's write path until
	// something times out.
	StallAfterBytes int64
	// RSTAfterBytes, when positive, aborts the connection with a TCP RST
	// (SO_LINGER=0 close of both sides) after this many response bytes.
	RSTAfterBytes int64
	// HalfCloseAfterBytes, when positive, sends FIN to the server
	// (CloseWrite) after this many request bytes while continuing to
	// read the response — a client that shuts down its send side early.
	HalfCloseAfterBytes int64
	// ExtraLatency, when positive, adds propagation delay in both
	// directions. Shorthand for Up.Delay/Down.Delay.
	ExtraLatency time.Duration
}

// normalized folds the legacy shorthand fields into the per-direction
// Links so the pipeline has one source of truth.
func (prof Profile) normalized() Profile {
	if prof.UpBytesPerSec > 0 && prof.Up.RateBytesPerSec == 0 {
		prof.Up.RateBytesPerSec = prof.UpBytesPerSec
	}
	if prof.DownBytesPerSec > 0 && prof.Down.RateBytesPerSec == 0 {
		prof.Down.RateBytesPerSec = prof.DownBytesPerSec
	}
	if prof.ExtraLatency > 0 {
		prof.Up.Delay += prof.ExtraLatency
		prof.Down.Delay += prof.ExtraLatency
	}
	return prof
}

// Plan assigns a Profile to the conn-th accepted connection. rng is
// derived deterministically from the proxy Seed and conn, so a Plan that
// randomizes (e.g. "30% of connections are slow readers") is still
// reproducible across runs.
type Plan func(conn int, rng *dist.RNG) Profile

// Config parameterizes a Proxy.
type Config struct {
	// Upstream is the host:port of the server under test. Required.
	Upstream string
	// Seed derives the per-connection RNG streams handed to Plan and the
	// per-direction link decision streams.
	Seed uint64
	// Plan picks each connection's faults; nil proxies transparently.
	Plan Plan
	// DialTimeout bounds the upstream dial (default 5 s).
	DialTimeout time.Duration
}

// Stats is a snapshot of the proxy's counters. The per-fault counts
// increment when a fault actually engages on a connection, not when a
// profile merely requests it; Up/Down aggregate what the link
// discipline did to the bytes that flowed.
type Stats struct {
	Conns        int64 // connections accepted and proxied
	SlowReads    int64 // connections that dribbled request bytes
	Stalls       int64 // responses stalled mid-transfer
	Resets       int64 // connections aborted with RST
	HalfCloses   int64 // early FINs sent upstream
	Capped       int64 // connections with a download bandwidth cap
	Delayed      int64 // connections with added propagation delay
	LossyConns   int64 // connections with seeded segment loss
	ReorderConns int64 // connections with seeded segment reordering
	BytesUp      int64 // client→server bytes forwarded
	BytesDown    int64 // server→client bytes forwarded

	// Up and Down are the per-direction link-discipline aggregates.
	Up   LinkStats
	Down LinkStats
}

// String renders the snapshot in a stable three-line format for test
// logs, chaos artifacts, and golden assertions.
func (s Stats) String() string {
	return fmt.Sprintf(
		"conns=%d slowreads=%d stalls=%d resets=%d halfcloses=%d capped=%d delayed=%d lossy=%d reordering=%d\nup:   %s\ndown: %s",
		s.Conns, s.SlowReads, s.Stalls, s.Resets, s.HalfCloses,
		s.Capped, s.Delayed, s.LossyConns, s.ReorderConns,
		s.Up, s.Down)
}

// Proxy is the fault-injection proxy. Create with New, tear down with
// Close.
type Proxy struct {
	cfg Config
	ln  net.Listener

	wg       sync.WaitGroup
	stop     chan struct{}
	stopOnce sync.Once

	mu    sync.Mutex
	conns map[net.Conn]struct{} // both sides of every live pair

	nConns       metrics.Counter
	slowReads    metrics.Counter
	stalls       metrics.Counter
	resets       metrics.Counter
	halfCloses   metrics.Counter
	capped       metrics.Counter
	delayed      metrics.Counter
	lossyConns   metrics.Counter
	reorderConns metrics.Counter
	bytesUp      metrics.Counter
	bytesDown    metrics.Counter

	upLink   linkCounters
	downLink linkCounters
}

// New binds the proxy on a fresh loopback port and starts accepting.
func New(cfg Config) (*Proxy, error) {
	if cfg.Upstream == "" {
		return nil, fmt.Errorf("faultline: Upstream is required")
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("faultline: listen: %w", err)
	}
	p := &Proxy{
		cfg:   cfg,
		ln:    ln,
		stop:  make(chan struct{}),
		conns: make(map[net.Conn]struct{}),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address; point clients here instead of
// at the server.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Stats returns a snapshot of the counters.
func (p *Proxy) Stats() Stats {
	return Stats{
		Conns:        p.nConns.Value(),
		SlowReads:    p.slowReads.Value(),
		Stalls:       p.stalls.Value(),
		Resets:       p.resets.Value(),
		HalfCloses:   p.halfCloses.Value(),
		Capped:       p.capped.Value(),
		Delayed:      p.delayed.Value(),
		LossyConns:   p.lossyConns.Value(),
		ReorderConns: p.reorderConns.Value(),
		BytesUp:      p.bytesUp.Value(),
		BytesDown:    p.bytesDown.Value(),
		Up:           p.upLink.snapshot(p.bytesUp.Value()),
		Down:         p.downLink.snapshot(p.bytesDown.Value()),
	}
}

// Close stops accepting, severs every proxied connection, and waits for
// all pumps to exit. Safe to call more than once.
func (p *Proxy) Close() {
	p.stopOnce.Do(func() {
		close(p.stop)
		p.ln.Close()
		p.mu.Lock()
		for c := range p.conns {
			c.Close()
		}
		p.mu.Unlock()
	})
	p.wg.Wait()
}

// connSeed mixes the proxy seed with the connection index (SplitMix64
// constant) so each connection gets an independent, reproducible stream.
func connSeed(seed uint64, idx int) uint64 {
	return seed + uint64(idx)*0x9e3779b97f4a7c15
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	idx := 0
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		profile := Profile{}
		if p.cfg.Plan != nil {
			profile = p.cfg.Plan(idx, dist.NewRNG(connSeed(p.cfg.Seed, idx)))
		}
		p.nConns.Inc()
		p.wg.Add(1)
		go p.proxyConn(client, profile, idx)
		idx++
	}
}

func (p *Proxy) track(c net.Conn, on bool) {
	p.mu.Lock()
	if on {
		p.conns[c] = struct{}{}
	} else {
		delete(p.conns, c)
	}
	p.mu.Unlock()
}

// proxyConn dials upstream and runs the two directional pumps.
func (p *Proxy) proxyConn(client net.Conn, prof Profile, idx int) {
	defer p.wg.Done()
	server, err := net.DialTimeout("tcp", p.cfg.Upstream, p.cfg.DialTimeout)
	if err != nil {
		client.Close()
		return
	}
	p.track(client, true)
	p.track(server, true)
	defer func() {
		p.track(client, false)
		p.track(server, false)
		client.Close()
		server.Close()
	}()

	prof = prof.normalized()

	// Classification counters: these profiles engage from byte one.
	if prof.Up.RateBytesPerSec > 0 {
		p.slowReads.Inc()
	}
	if prof.Down.RateBytesPerSec > 0 {
		p.capped.Inc()
	}
	if prof.Up.Delay > 0 || prof.Down.Delay > 0 {
		p.delayed.Inc()
	}
	if prof.Up.LossProb > 0 || prof.Down.LossProb > 0 {
		p.lossyConns.Inc()
	}
	if prof.Up.ReorderProb > 0 || prof.Down.ReorderProb > 0 {
		p.reorderConns.Inc()
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		p.pumpUp(client, server, prof, idx)
	}()
	go func() {
		defer wg.Done()
		p.pumpDown(client, server, prof, idx)
	}()
	wg.Wait()
}

// sleep waits for d or until the proxy is closing; it reports false when
// the proxy is shutting down.
func (p *Proxy) sleep(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	select {
	case <-p.stop:
		return false
	case <-time.After(d):
		return true
	}
}

// forward is the transparent fast path for a direction with no
// discipline: one synchronous write, no segmentation. Like every
// delivery site it counts BEFORE the write: a peer that has read the
// bytes must never find the counter still behind them (a write that
// fails is a dying connection, whose last chunk then counts as offered).
func (p *Proxy) forward(dst net.Conn, buf []byte, counter *metrics.Counter) error {
	counter.Add(int64(len(buf)))
	_, err := dst.Write(buf)
	return err
}

// closeWrite forwards a FIN to the peer when the transport supports it.
func closeWrite(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
}

// pumpUp forwards client→server: the request path. Slowloris dribble,
// half-close, and the Up link discipline apply here.
func (p *Proxy) pumpUp(client, server net.Conn, prof Profile, idx int) {
	var fd *feeder
	var pc *pacer
	if prof.Up.scheduled() {
		fd = newFeeder(p, prof.Up, StreamSeed(p.cfg.Seed, idx, DirUp), &p.upLink)
		var wwg sync.WaitGroup
		wwg.Add(1)
		go func() {
			defer wwg.Done()
			p.linkWriter(server, fd.lk, fd.ch, &p.bytesUp, func() { closeWrite(server) })
		}()
		defer wwg.Wait()
		defer fd.close()
	} else if prof.Up.active() {
		pc = newPacer(p, prof.Up, &p.upLink)
	}
	send := func(chunk []byte) bool {
		switch {
		case fd != nil:
			return fd.feed(chunk)
		case pc != nil:
			return pc.send(server, chunk, &p.bytesUp)
		}
		return p.forward(server, chunk, &p.bytesUp) == nil
	}

	buf := make([]byte, 32<<10)
	var sent int64
	for {
		n, err := client.Read(buf)
		if n > 0 {
			chunk := buf[:n]
			if prof.HalfCloseAfterBytes > 0 && sent+int64(n) > prof.HalfCloseAfterBytes {
				chunk = chunk[:prof.HalfCloseAfterBytes-sent]
			}
			if len(chunk) > 0 {
				if !send(chunk) {
					return
				}
				sent += int64(len(chunk))
			}
			if prof.HalfCloseAfterBytes > 0 && sent >= prof.HalfCloseAfterBytes {
				p.halfCloses.Inc()
				if fd == nil {
					closeWrite(server)
				}
				// With a pipeline, the deferred close lets the writer
				// flush the queue and forward the FIN behind it.
				return
			}
		}
		if err != nil {
			// Client finished sending: forward the FIN upstream (behind
			// any queued bytes) but keep the down pump alive for the
			// tail of the response.
			if fd == nil {
				closeWrite(server)
			}
			return
		}
	}
}

// pumpDown forwards server→client: the response path. Stall, RST, and
// the Down link discipline apply here.
func (p *Proxy) pumpDown(client, server net.Conn, prof Profile, idx int) {
	var fd *feeder
	var pc *pacer
	if prof.Down.scheduled() {
		fd = newFeeder(p, prof.Down, StreamSeed(p.cfg.Seed, idx, DirDown), &p.downLink)
		var wwg sync.WaitGroup
		wwg.Add(1)
		go func() {
			defer wwg.Done()
			p.linkWriter(client, fd.lk, fd.ch, &p.bytesDown, func() { closeWrite(client) })
		}()
		defer wwg.Wait()
		defer fd.close()
	} else if prof.Down.active() {
		pc = newPacer(p, prof.Down, &p.downLink)
	}
	send := func(chunk []byte) bool {
		switch {
		case fd != nil:
			return fd.feed(chunk)
		case pc != nil:
			return pc.send(client, chunk, &p.bytesDown)
		}
		return p.forward(client, chunk, &p.bytesDown) == nil
	}

	buf := make([]byte, 32<<10)
	var recvd int64
	for {
		if prof.StallAfterBytes > 0 && recvd >= prof.StallAfterBytes {
			// Stalled reader: stop draining the server and hold the
			// connection open until the proxy closes or the server gives
			// up. The server's response backs up behind a full socket
			// buffer — the paper's blocked-writer regime.
			p.stalls.Inc()
			<-p.stop
			return
		}
		n, err := server.Read(buf)
		if n > 0 {
			recvd += int64(n)
			if prof.RSTAfterBytes > 0 && recvd >= prof.RSTAfterBytes {
				p.resets.Inc()
				abort(client)
				abort(server)
				return
			}
			if !send(buf[:n]) {
				return
			}
		}
		if err != nil {
			// Server finished: forward the FIN to the client (behind any
			// queued response bytes).
			if fd == nil {
				closeWrite(client)
			}
			return
		}
	}
}

// abort closes c so the peer sees an RST, not an orderly FIN.
func abort(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	c.Close()
}

// ---------------------------------------------------------------------
// Canned plans for the paper's standard attacks and link conditions.
// ---------------------------------------------------------------------

// Slowloris returns a Plan that dribbles every connection's request
// bytes at the given rate — the canonical thread-pool-exhaustion attack.
func Slowloris(bytesPerSec int) Plan {
	return func(int, *dist.RNG) Profile {
		return Profile{UpBytesPerSec: bytesPerSec}
	}
}

// Transparent returns a no-fault pass-through Plan.
func Transparent() Plan {
	return func(int, *dist.RNG) Profile { return Profile{} }
}

// LinkPlan returns a Plan that applies the same per-direction discipline
// to every connection — an emulated physical link shared by nothing but
// fairness (callers split an aggregate rate across the expected
// connection count; see the scenario package).
func LinkPlan(up, down Link) Plan {
	return func(int, *dist.RNG) Profile {
		return Profile{Up: up, Down: down}
	}
}

// Mixed returns a Plan where each connection independently draws one
// fault with probability pFault (uniform over the listed profiles),
// otherwise passes through — hostile traffic diluted into a healthy
// stream, reproducibly.
func Mixed(pFault float64, faults ...Profile) Plan {
	return func(_ int, rng *dist.RNG) Profile {
		if len(faults) == 0 || rng.Float64() >= pFault {
			return Profile{}
		}
		return faults[rng.Intn(len(faults))]
	}
}
