package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/dist"
)

// The load generator: one goroutine per connection on a blocking socket
// driven with raw syscalls. A goroutine blocked in read(2) is woken by
// the kernel directly — no netpoller, no futex hop — which keeps both
// the client's CPU and its share of the measured latency as small as a
// C client's. Nothing on the per-reply path allocates.

const (
	// ioTimeout bounds every blocking read and write; a reply that takes
	// longer is a failure with no latency sample.
	ioTimeout = 10 * time.Second
	// fullCompareEvery is the body-verification rate after warm-up
	// (every warm-up reply is compared in full).
	fullCompareEvery = 64
	// spanEvery is the client-side span sampling rate in the traced pass.
	spanEvery = 16
	maxBatch  = 8
)

// sample is one verified reply: when its last body byte arrived and how
// long after the request write that was, both in ns on the run's clock.
type sample struct {
	at  int64
	lat int64
}

// failure is one reply that did not verify.
type failure struct {
	at  int64
	err error
}

// spanRec is the raw timing of one sampled request; spans() expands it
// into request ⊃ connect, send, wait, body.
type spanRec struct {
	req          uint64 // request id, unique in the run
	conn         int
	object       int
	connectStart int64 // 0 unless the request dialled (churn)
	start        int64 // request write begins
	sent         int64 // request write returned
	head         int64 // reply head complete
	end          int64 // last body byte
}

// clock is the run's time source: ns since the run began.
type clock struct{ base time.Time }

func (c clock) now() int64 { return int64(time.Since(c.base)) }

// phaseFlags is what the controller tells the connections.
type phaseFlags struct {
	stop      atomic.Bool
	verifyAll atomic.Bool // warm-up: compare every body in full
}

// clientConn is one connection's worker state.
type clientConn struct {
	idx    int
	w      workload
	sa     syscall.SockaddrInet4
	objs   *objects
	reqs   [][]byte // wire form of the request for each object id
	pick   picker
	flags  *phaseFlags
	clk    clock
	traced bool
	// quota, when non-nil, ends the run after exactly this many
	// attempts across all connections (the seam pass).
	quota *atomic.Int64
	// pin, when non-nil, is the CPU mask the connection's thread is
	// confined to (see affinity.go).
	pin *cpuMask

	fd   int
	rr   *replyReader
	wbuf []byte
	ids  [maxBatch]int
	nreq uint64

	samples   []sample
	failures  []failure
	spans     []spanRec
	attempted int64
	failed    int64
}

var (
	errTimeout  = errors.New("no progress for 10s")
	errTrailing = errors.New("bytes beyond the last reply")
)

// read is a blocking read(2) on the connection.
func (c *clientConn) read(p []byte) (int, error) {
	for {
		n, err := syscall.Read(c.fd, p)
		switch err {
		case nil:
			return n, nil
		case syscall.EINTR: // SO_RCVTIMEO defeats SA_RESTART
			continue
		case syscall.EAGAIN:
			return 0, errTimeout
		}
		return 0, err
	}
}

func (c *clientConn) writeAll(p []byte) error {
	for len(p) > 0 {
		n, err := syscall.Write(c.fd, p)
		switch err {
		case nil:
			p = p[n:]
		case syscall.EINTR:
		case syscall.EAGAIN:
			return errTimeout
		default:
			return err
		}
	}
	return nil
}

func (c *clientConn) dial() error {
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return fmt.Errorf("socket: %w", err)
	}
	// connect(2) before the timeouts are set: without SO_SNDTIMEO the
	// runtime's SA_RESTART handlers restart it transparently.
	if err := syscall.Connect(fd, &c.sa); err != nil {
		syscall.Close(fd)
		return fmt.Errorf("connect: %w", err)
	}
	tv := syscall.NsecToTimeval(int64(ioTimeout))
	err = syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1)
	if err == nil {
		err = syscall.SetsockoptTimeval(fd, syscall.SOL_SOCKET, syscall.SO_RCVTIMEO, &tv)
	}
	if err == nil {
		err = syscall.SetsockoptTimeval(fd, syscall.SOL_SOCKET, syscall.SO_SNDTIMEO, &tv)
	}
	if err != nil {
		syscall.Close(fd)
		return fmt.Errorf("setsockopt: %w", err)
	}
	c.fd = fd
	c.rr.reset(c.read)
	return nil
}

func (c *clientConn) hangup() {
	if c.fd >= 0 {
		syscall.Close(c.fd)
		c.fd = -1
	}
}

// claim reserves n attempts against the quota; it returns how many this
// connection may still make (n when there is no quota).
func (c *clientConn) claim(n int) int {
	if c.quota == nil {
		return n
	}
	left := c.quota.Add(-int64(n))
	if left >= 0 {
		return n
	}
	if over := int(-left); over < n {
		return n - over
	}
	return 0
}

// run issues batches until told to stop (or the quota is spent).
func (c *clientConn) run() {
	defer c.hangup()
	if c.pin != nil {
		// Never unlocked: the thread ends with the goroutine, so a
		// pinned thread cannot return to the runtime's pool.
		runtime.LockOSThread()
		if err := pinThread(c.pin); err != nil {
			c.attempted++
			c.fail(c.clk.now(), 1, err)
			return
		}
	}
	for !c.flags.stop.Load() {
		n := c.claim(c.w.batch)
		if n == 0 {
			return
		}
		c.batch(n)
	}
}

// fail records that n of the attempted replies did not verify.
func (c *clientConn) fail(at int64, n int, err error) {
	c.failed += int64(n)
	c.failures = append(c.failures, failure{at: at, err: err})
}

// batch writes n requests back to back and reads the n replies.
func (c *clientConn) batch(n int) {
	c.attempted += int64(n)
	sampled := c.traced && c.nreq%spanEvery == 0
	var sp spanRec
	if c.fd < 0 {
		if sampled {
			sp.connectStart = c.clk.now()
		}
		if err := c.dial(); err != nil {
			c.fail(c.clk.now(), n, err)
			time.Sleep(time.Millisecond) // do not spin on a dead server
			return
		}
	}
	c.wbuf = c.wbuf[:0]
	for i := 0; i < n; i++ {
		c.ids[i] = c.pick.next()
		c.wbuf = append(c.wbuf, c.reqs[c.ids[i]]...)
	}
	t0 := c.clk.now()
	if err := c.writeAll(c.wbuf); err != nil {
		c.fail(c.clk.now(), n, fmt.Errorf("write: %w", err))
		c.hangup()
		return
	}
	var headClock func() int64
	if sampled {
		sp.sent = c.clk.now()
		headClock = c.clk.now
	}
	lastOK := false // whether the batch's last reply verified
	for i := 0; i < n; i++ {
		id := c.ids[i]
		size := c.objs.set.Object(id).Size
		var want []byte
		if c.flags.verifyAll.Load() || c.nreq%fullCompareEvery == 0 {
			want = c.objs.body(id)
		}
		status, length, headAt, err := c.rr.next(want, headClock)
		t := c.clk.now()
		c.nreq++
		lastOK = err == nil && status == 200 && length == size
		if !lastOK {
			c.fail(t, 1, &replyError{id: id, status: status, got: length, want: size, err: err})
			if err != nil && err != errBodyBytes {
				// The stream is lost: the rest of the batch fails with it.
				if rest := n - i - 1; rest > 0 {
					c.fail(t, rest, fmt.Errorf("batch abandoned after: %w", err))
				}
				c.hangup()
				return
			}
			continue
		}
		c.samples = append(c.samples, sample{at: t, lat: t - t0})
		if sampled && i == 0 {
			sp.req = uint64(c.idx)<<48 | c.nreq
			sp.conn, sp.object = c.idx, id
			sp.start, sp.head, sp.end = t0, headAt, t
			c.spans = append(c.spans, sp)
		}
		headClock = nil
	}
	// Nothing may follow the batch: EOF in churn (the server closes
	// first, so TIME_WAIT stays on its side and the client's ephemeral
	// ports can be reused at once), silence otherwise.
	var trailing error
	switch {
	case c.rr.buffered() != 0:
		trailing = errTrailing
	case c.w.churn:
		if err := c.rr.fill(); err == nil {
			trailing = errTrailing
		} else if err != io.ErrUnexpectedEOF {
			trailing = err
		}
	}
	if c.w.churn || trailing != nil {
		c.hangup()
	}
	if trailing != nil && lastOK {
		c.fail(c.clk.now(), 1, trailing)
		c.samples = c.samples[:len(c.samples)-1] // that reply had verified; take it back
	}
}

// fleet is the set of connections of one run.
type fleet struct {
	conns []*clientConn
	flags *phaseFlags
	wg    sync.WaitGroup
}

// clientConns is the sizing rule: ONE connection. With two, the closed
// loops phase-lock: either both requests reach the server in the same
// epoll_wait cycle or they alternate, the run settles into one mode or
// flips between them, and the modes differ by 8 % in server CPU per
// reply and 12 % in p95 (nio_pipelined, pinned: 8.6 vs 9.3 us and 352 vs
// 400 us, two runs in eight in the fast mode). One connection on the
// servers' CPU is a strict ping-pong — exactly one wake per request or
// batch — and eight runs read p95 within 1.3 % of each other. The fleet
// still takes a count: the in-process tests drive two.
const clientConns = 1

func newFleet(w workload, addr string, objs *objects, seed uint64, nconn int, clk clock, traced bool) (*fleet, error) {
	ta, err := net.ResolveTCPAddr("tcp4", addr)
	if err != nil {
		return nil, fmt.Errorf("server address %q: %w", addr, err)
	}
	sa := syscall.SockaddrInet4{Port: ta.Port}
	copy(sa.Addr[:], ta.IP.To4())
	reqs := objs.reqKeepAlive
	if w.churn {
		reqs = objs.reqClose
	}
	f := &fleet{flags: &phaseFlags{}}
	for i := 0; i < nconn; i++ {
		c := &clientConn{
			idx: i, w: w, sa: sa, objs: objs, reqs: reqs, flags: f.flags, clk: clk, traced: traced,
			pick:    picker{o: objs, kind: w.ids, rng: dist.NewRNG(streamSeed(seed) + uint64(i)*0x9e3779b97f4a7c15)},
			fd:      -1,
			samples: make([]sample, 0, 1<<19),
		}
		c.rr = newReplyReader(c.read)
		f.conns = append(f.conns, c)
	}
	return f, nil
}

func (f *fleet) start() {
	for _, c := range f.conns {
		f.wg.Add(1)
		go func(c *clientConn) {
			defer f.wg.Done()
			c.run()
		}(c)
	}
}

// stop ends the run and waits for every connection to be closed.
func (f *fleet) stop() {
	f.flags.stop.Store(true)
	f.wg.Wait()
}

// replyError describes one failed reply for the failure log.
type replyError struct {
	id     int
	status int
	got    int64
	want   int64
	err    error
}

func (e *replyError) Error() string {
	if e.err != nil {
		return fmt.Sprintf("object %d: %v", e.id, e.err)
	}
	if e.status != 200 {
		return fmt.Sprintf("object %d: status %d, want 200", e.id, e.status)
	}
	return fmt.Sprintf("object %d: Content-Length %d, want %d", e.id, e.got, e.want)
}
