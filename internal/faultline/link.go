// link.go is the deterministic link discipline: the per-direction model
// a proxied connection's bytes travel through. It replaces the original
// sleep-per-chunk throttle with the classic shaping pipeline a real
// emulated link (netem, dummynet) applies per packet:
//
//	segmentation → bounded queue (drop-tail) → token-bucket rate →
//	propagation delay + seeded jitter → seeded loss → seeded reordering
//
// The proxy forwards a TCP byte stream, so "loss" and "reordering" are
// modeled the way a client application actually observes them through a
// real lossy link: TCP never delivers corrupted or out-of-order bytes to
// the socket. A lost segment costs its retransmission (the segment and
// everything behind it stall for LossPenalty — the RTO model); a
// reordered segment is a straggler held back for ReorderDelay while
// later segments queue up behind it and then arrive in one burst once
// the straggler lands (head-of-line blocking and the reassembly burst).
// Queue overflow (drop-tail) likewise surfaces as a retransmission
// penalty plus backpressure on the sender.
//
// Determinism contract: every random decision — jitter draw, loss draw,
// reorder draw — for segment k of a connection's direction depends only
// on (Config.Seed, connection index, direction, k). Segments are
// addressed by absolute byte offset (segment k covers stream bytes
// [k·MTU, (k+1)·MTU)), never by read() boundaries, so two runs that
// move the same bytes make byte-identical decisions regardless of
// goroutine or kernel scheduling. Queue overflows are the one
// deliberately load-dependent effect (they depend on how fast the peer
// drains), so they are counted separately and never perturb the
// decision stream.
package faultline

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/dist"
	"repro/internal/metrics"
)

// Link is one direction's discipline. The zero value is a transparent,
// unshaped direction (no segmentation cost, no randomness consumed).
type Link struct {
	// RateBytesPerSec, when positive, shapes the direction to this rate
	// with a token bucket: bursts up to BurstBytes pass at line rate,
	// sustained transfer is paced exactly.
	RateBytesPerSec int
	// BurstBytes is the token-bucket depth. 0 means a default of
	// max(segment, RateBytesPerSec/20) — 50 ms worth of credit.
	BurstBytes int
	// Delay is the fixed one-way propagation delay applied to every
	// segment. It overlaps with transmission (pipelining): it adds
	// latency, not rate.
	Delay time.Duration
	// Jitter, when positive, adds a seeded uniform extra delay in
	// [0, Jitter) per segment. In-order delivery is preserved (TCP
	// semantics), so jitter surfaces as delivery burstiness.
	Jitter time.Duration
	// LossProb is the per-segment probability that the segment is
	// "lost on the wire" and retransmitted: the segment (and everything
	// behind it) is delayed by LossPenalty.
	LossProb float64
	// LossPenalty is the retransmission stall per lost segment (the RTO
	// model). 0 means 200 ms.
	LossPenalty time.Duration
	// ReorderProb is the per-segment probability the segment straggles:
	// it is held for ReorderDelay while subsequent segments queue behind
	// it, then everything flushes in a burst.
	ReorderProb float64
	// ReorderDelay is the straggler holdback. 0 means 25 ms.
	ReorderDelay time.Duration
	// QueueBytes bounds the link's queue (drop-tail). A segment arriving
	// at a full queue counts an overflow and is retransmitted after
	// LossPenalty (with backpressure on the reader meanwhile). 0 means
	// 256 KiB.
	QueueBytes int
	// MTU is the segment size. 0 means 1448 (Ethernet MSS). Low rates
	// shrink the effective segment to RateBytesPerSec/10 (at least 1)
	// so a 10 B/s link really does dribble a byte at a time.
	MTU int
}

// Default discipline constants.
const (
	defaultMTU          = 1448
	defaultLossPenalty  = 200 * time.Millisecond
	defaultReorderDelay = 25 * time.Millisecond
	defaultQueueBytes   = 256 << 10
	maxQueueSegments    = 4096
)

// active reports whether the direction needs the shaping pipeline at
// all; inactive directions take the transparent fast path.
func (l Link) active() bool {
	return l.RateBytesPerSec > 0 || l.Delay > 0 || l.Jitter > 0 ||
		l.LossProb > 0 || l.ReorderProb > 0
}

// scheduled reports whether the direction needs the asynchronous
// scheduled pipeline: delay, jitter, loss, or reordering can leave work
// pending after the reader has moved on. A pure rate cap never does —
// it paces inline on the reading goroutine (pacer), which preserves the
// original throttle's exact backpressure shape and avoids a writer
// goroutine waking per dribbled byte next to a co-located server.
func (l Link) scheduled() bool {
	return l.Delay > 0 || l.Jitter > 0 || l.LossProb > 0 || l.ReorderProb > 0
}

// segSize returns the effective segment size: MTU, shrunk on slow links
// so pacing stays a dribble rather than burst-and-sleep.
func (l Link) segSize() int {
	mtu := l.MTU
	if mtu <= 0 {
		mtu = defaultMTU
	}
	if l.RateBytesPerSec > 0 {
		if s := l.RateBytesPerSec / 10; s < mtu {
			if s < 1 {
				s = 1
			}
			mtu = s
		}
	}
	return mtu
}

// withDefaults fills the defaulted fields so the pipeline never
// re-derives them.
func (l Link) withDefaults() Link {
	l.MTU = l.segSize()
	if l.BurstBytes <= 0 {
		l.BurstBytes = l.RateBytesPerSec / 20
		if l.BurstBytes < l.MTU {
			l.BurstBytes = l.MTU
		}
	}
	if l.LossPenalty <= 0 {
		l.LossPenalty = defaultLossPenalty
	}
	if l.ReorderDelay <= 0 {
		l.ReorderDelay = defaultReorderDelay
	}
	if l.QueueBytes <= 0 {
		l.QueueBytes = defaultQueueBytes
	}
	return l
}

// Direction selects one side of a proxied connection's discipline.
type Direction int

// The two directions of a proxied connection.
const (
	DirUp   Direction = iota // client → server (requests)
	DirDown                  // server → client (responses)
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	if d == DirUp {
		return "up"
	}
	return "down"
}

// Stream-seed derivation constants: the per-connection seed is split
// into independent streams for the Plan RNG and each direction's
// decider, so adding a draw to one never perturbs the others.
const (
	upStreamSalt   = 0xa11ce5ca1ab1e000
	downStreamSalt = 0x5eedface0fda7a00
)

// StreamSeed derives the decision-stream seed for one direction of the
// conn-th connection of a proxy seeded with seed. Exported so tests can
// replay the exact decision stream a run used.
func StreamSeed(seed uint64, conn int, dir Direction) uint64 {
	s := connSeed(seed, conn)
	if dir == DirUp {
		return s ^ upStreamSalt
	}
	return s ^ downStreamSalt
}

// decision is the seeded per-segment draw: everything random the link
// does to one segment.
type decision struct {
	jitter  time.Duration
	lost    bool
	reorder bool
}

// extra returns the scheduled delay the decision injects beyond the
// fixed propagation delay.
func (d decision) extra(l Link) time.Duration {
	e := d.jitter
	if d.lost {
		e += l.LossPenalty
	}
	if d.reorder {
		e += l.ReorderDelay
	}
	return e
}

// decider draws the per-segment decision stream. Exactly three uniform
// draws per segment, always, so the stream stays aligned across Link
// configurations that differ only in probabilities.
type decider struct {
	cfg Link
	rng *dist.RNG
}

func newDecider(cfg Link, streamSeed uint64) *decider {
	return &decider{cfg: cfg, rng: dist.NewRNG(streamSeed)}
}

func (d *decider) next() decision {
	uJitter := d.rng.Float64()
	uLoss := d.rng.Float64()
	uReorder := d.rng.Float64()
	var dec decision
	if d.cfg.Jitter > 0 {
		dec.jitter = time.Duration(uJitter * float64(d.cfg.Jitter))
	}
	dec.lost = uLoss < d.cfg.LossProb
	dec.reorder = uReorder < d.cfg.ReorderProb
	return dec
}

// DecisionTrace renders the first n per-segment decisions of the
// decision stream for (cfg, streamSeed) — one line per segment. This is
// the determinism contract made concrete: two traces for the same
// inputs are byte-identical, and the chaos suite asserts exactly that.
func DecisionTrace(cfg Link, streamSeed uint64, n int) string {
	d := newDecider(cfg.withDefaults(), streamSeed)
	var b strings.Builder
	for i := 0; i < n; i++ {
		dec := d.next()
		fmt.Fprintf(&b, "seg=%d jitter=%dns lost=%t reorder=%t\n",
			i, dec.jitter.Nanoseconds(), dec.lost, dec.reorder)
	}
	return b.String()
}

// LinkStats is one direction's aggregate shaping counters across every
// connection the proxy carried.
type LinkStats struct {
	Segments  int64 // segments that entered the discipline
	Bytes     int64 // payload bytes forwarded
	Lost      int64 // segments hit by the seeded loss draw
	Reordered int64 // segments hit by the seeded reorder draw
	Overflows int64 // drop-tail queue overflows (load-dependent)
	// DelayInjected is the sum of scheduled extra delay: fixed Delay per
	// segment plus jitter, loss and reorder penalties. It is computed
	// from the decision stream, so it is deterministic for a fixed byte
	// count; overflow penalties are deliberately excluded.
	DelayInjected time.Duration
}

// String renders the stats in a stable single-line format for test logs
// and golden assertions.
func (s LinkStats) String() string {
	return fmt.Sprintf("segs=%d bytes=%d lost=%d reordered=%d overflows=%d delay=%s",
		s.Segments, s.Bytes, s.Lost, s.Reordered, s.Overflows, s.DelayInjected)
}

// linkCounters aggregates one direction's shaping activity across
// connections (all atomic).
type linkCounters struct {
	segments  metrics.Counter
	lost      metrics.Counter
	reordered metrics.Counter
	overflows metrics.Counter
	delayNs   metrics.Counter
}

func (lc *linkCounters) snapshot(bytes int64) LinkStats {
	return LinkStats{
		Segments:      lc.segments.Value(),
		Bytes:         bytes,
		Lost:          lc.lost.Value(),
		Reordered:     lc.reordered.Value(),
		Overflows:     lc.overflows.Value(),
		DelayInjected: time.Duration(lc.delayNs.Value()),
	}
}

// frag is one queued piece of the byte stream, at most one segment
// long. A fragment that begins a new segment carries that segment's
// decision; continuation fragments inherit in-order delivery.
type frag struct {
	data []byte
	dec  *decision
	// at is when the fragment entered the link (was read off the wire).
	// Transmission and propagation are scheduled from this instant so
	// delay pipelines instead of serializing per fragment.
	at time.Time
	// overflow marks a fragment that hit a full queue: the writer adds
	// the drop-tail retransmission penalty.
	overflow bool
}

// feeder is the reader half of one direction's pipeline: it slices the
// byte stream into segment-addressed fragments, draws each segment's
// decision, and enqueues with drop-tail accounting.
type feeder struct {
	p      *Proxy
	lk     Link
	dec    *decider
	ch     chan frag
	offset int64 // absolute stream offset
	lc     *linkCounters
}

func newFeeder(p *Proxy, lk Link, streamSeed uint64, lc *linkCounters) *feeder {
	lk = lk.withDefaults()
	capSegs := lk.QueueBytes / lk.MTU
	if capSegs < 1 {
		capSegs = 1
	}
	if capSegs > maxQueueSegments {
		capSegs = maxQueueSegments
	}
	return &feeder{
		p:   p,
		lk:  lk,
		dec: newDecider(lk, streamSeed),
		ch:  make(chan frag, capSegs),
		lc:  lc,
	}
}

// feed forwards chunk through the pipeline. It blocks under
// backpressure and returns false when the proxy is shutting down.
func (f *feeder) feed(chunk []byte) bool {
	seg := int64(f.lk.MTU)
	for len(chunk) > 0 {
		// The fragment runs to the end of the current segment.
		room := seg - f.offset%seg
		n := int64(len(chunk))
		if n > room {
			n = room
		}
		fr := frag{data: append([]byte(nil), chunk[:n]...), at: time.Now()}
		if f.offset%seg == 0 {
			d := f.dec.next()
			fr.dec = &d
			f.lc.segments.Inc()
			if d.lost {
				f.lc.lost.Inc()
			}
			if d.reorder {
				f.lc.reordered.Inc()
			}
			f.lc.delayNs.Add(int64(f.lk.Delay + d.extra(f.lk)))
		}
		if !f.enqueue(fr) {
			return false
		}
		f.offset += n
		chunk = chunk[n:]
	}
	return true
}

// enqueue performs the drop-tail admission: a fragment meeting a full
// queue is counted as an overflow, charged the retransmission penalty,
// and re-offered with backpressure.
func (f *feeder) enqueue(fr frag) bool {
	select {
	case f.ch <- fr:
		return true
	default:
	}
	f.lc.overflows.Inc()
	fr.overflow = true
	if !f.p.sleep(f.lk.LossPenalty) {
		return false
	}
	select {
	case f.ch <- fr:
		return true
	case <-f.p.stop:
		return false
	}
}

// close ends the stream; the writer flushes what is queued and then
// forwards the FIN.
func (f *feeder) close() { close(f.ch) }

// pacer is the synchronous shaping path for a rate-only link: with no
// delay, jitter, loss, or reordering to schedule, nothing is ever
// pending after a write completes, so the virtual transmission clock
// runs inline on the reading goroutine. Pacing slices are ~1/10 s of
// rate (at least one byte), so a 10 B/s link really does dribble a byte
// at a time while a fast cap sleeps only a few times a second.
type pacer struct {
	p        *Proxy
	rate     int
	slice    int
	burstDur time.Duration
	txAt     time.Time
	lc       *linkCounters
}

func newPacer(p *Proxy, lk Link, lc *linkCounters) *pacer {
	lk = lk.withDefaults()
	slice := lk.RateBytesPerSec / 10
	if slice < 1 {
		slice = 1
	}
	return &pacer{
		p:        p,
		rate:     lk.RateBytesPerSec,
		slice:    slice,
		burstDur: time.Duration(float64(lk.BurstBytes) / float64(lk.RateBytesPerSec) * float64(time.Second)),
		lc:       lc,
	}
}

// send forwards chunk to dst at the configured rate, slice by slice on
// the token-bucket clock. It reports false when the proxy is shutting
// down or the peer is gone.
func (pc *pacer) send(dst writeConn, chunk []byte, bytes *metrics.Counter) bool {
	for len(chunk) > 0 {
		n := pc.slice
		if n > len(chunk) {
			n = len(chunk)
		}
		// Same virtual clock as linkWriter: idle credit accrues up to the
		// bucket depth, then bytes pace at the configured rate.
		now := time.Now()
		if lo := now.Add(-pc.burstDur); pc.txAt.Before(lo) {
			pc.txAt = lo
		}
		pc.txAt = pc.txAt.Add(time.Duration(float64(n) / float64(pc.rate) * float64(time.Second)))
		if !pc.p.sleepUntil(pc.txAt) {
			return false
		}
		// Counted before delivery; see Proxy.forward.
		bytes.Add(int64(n))
		pc.lc.segments.Inc()
		if _, err := dst.Write(chunk[:n]); err != nil {
			return false
		}
		chunk = chunk[n:]
	}
	return true
}

// linkWriter is the writer half: it drains the queue, schedules each
// fragment on the virtual transmission clock (token bucket), applies
// propagation delay plus the segment's decision, enforces in-order
// delivery, and writes to dst. fin, when non-nil, runs after a clean
// end-of-stream flush (forwarding the FIN).
func (p *Proxy) linkWriter(dst writeConn, lk Link, ch <-chan frag, bytes *metrics.Counter, fin func()) {
	lk = lk.withDefaults()
	var burstDur time.Duration
	if lk.RateBytesPerSec > 0 {
		burstDur = time.Duration(float64(lk.BurstBytes) / float64(lk.RateBytesPerSec) * float64(time.Second))
	}
	var txAt, floor time.Time
	failed := false
	for fr := range ch {
		if failed {
			continue // keep draining so the feeder never wedges
		}
		// Schedule from the fragment's arrival on the link, not from
		// when this goroutine got to it: that is what makes propagation
		// delay pipeline rather than serialize.
		arrived := fr.at
		sendDone := arrived
		if lk.RateBytesPerSec > 0 {
			// Virtual transmission clock: idle credit accrues up to the
			// bucket depth, then bytes pace at the configured rate.
			if lo := arrived.Add(-burstDur); txAt.Before(lo) {
				txAt = lo
			}
			txAt = txAt.Add(time.Duration(float64(len(fr.data)) / float64(lk.RateBytesPerSec) * float64(time.Second)))
			if sendDone = txAt; sendDone.Before(arrived) {
				sendDone = arrived
			}
		}
		deliverAt := sendDone.Add(lk.Delay)
		if fr.dec != nil {
			deliverAt = deliverAt.Add(fr.dec.extra(lk))
		}
		if fr.overflow {
			deliverAt = deliverAt.Add(lk.LossPenalty)
		}
		// In-order delivery: a straggler blocks everything behind it,
		// which then flushes as a burst — TCP reassembly as the client
		// sees it.
		if deliverAt.Before(floor) {
			deliverAt = floor
		}
		if !p.sleepUntil(deliverAt) {
			failed = true
			continue
		}
		// Counted before delivery; see Proxy.forward.
		bytes.Add(int64(len(fr.data)))
		if _, err := dst.Write(fr.data); err != nil {
			failed = true
			continue
		}
		floor = deliverAt
	}
	if !failed && fin != nil {
		fin()
	}
}

// writeConn is the slice of net.Conn the writer needs (real conns in
// production, byte sinks in tests).
type writeConn interface {
	Write([]byte) (int, error)
}

// sleepUntil waits for wall-clock t or proxy shutdown; it reports false
// when the proxy is closing.
func (p *Proxy) sleepUntil(t time.Time) bool {
	return p.sleep(time.Until(t))
}
