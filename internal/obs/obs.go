// Package obs is the live observability plane: per-connection lifecycle
// tracing and phase-latency histograms for the two real servers
// (internal/core, internal/mtserver), plus the admin introspection
// endpoint that exposes both over HTTP.
//
// It is the live, concurrent counterpart of internal/trace: the
// simulator's ring is single-threaded because simulations are, but the
// live plane is written by every reactor thread and pool thread at once
// and read concurrently by the admin endpoint — so the ring here is a
// fixed array of per-slot seqlocks built entirely from atomics. Recording
// an event is a handful of atomic stores (no locks, no allocation), and a
// reader that races a writer retries or skips the slot instead of
// observing a torn event. When no Plane is configured the servers skip
// every recording site on a nil check, so the plane costs nothing
// disabled.
package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Kind is the lifecycle event class, in the order the phases occur on a
// healthy connection.
type Kind uint8

const (
	// Accept: the connection was admitted and handed to a worker.
	Accept Kind = iota
	// HeaderRead: the first bytes of a request arrived.
	HeaderRead
	// Parse: a complete request was parsed. Value is the first-byte to
	// parsed latency (the parse phase).
	Parse
	// QueueWait: the connection reached an execution context. Value is
	// the accept-to-pickup wait — the reactor inbox on core, the
	// handoff queue on mtserver — the queueing delay a saturated server
	// hides from external measurement.
	QueueWait
	// Handler: a request was served. Value is the handler duration.
	Handler
	// FirstByte: the first response bytes reached the socket. Value is
	// the accept-to-first-byte latency.
	FirstByte
	// WriteComplete: a response (or response batch) finished flushing.
	// Value is the serve-to-flushed duration (the write phase).
	WriteComplete
	// Close: the connection was torn down.
	Close
	// Shed: an accept was refused by overload control (503). Shed
	// connections carry conn id 0: they never enter the lifecycle.
	Shed
	// Panic: a handler panic was isolated to this connection.
	Panic

	// NumKinds is the size of the event vocabulary.
	NumKinds = int(Panic) + 1
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Accept:
		return "accept"
	case HeaderRead:
		return "header-read"
	case Parse:
		return "parse"
	case QueueWait:
		return "queue-wait"
	case Handler:
		return "handler"
	case FirstByte:
		return "first-byte"
	case WriteComplete:
		return "write-complete"
	case Close:
		return "close"
	case Shed:
		return "shed"
	case Panic:
		return "panic"
	default:
		return "unknown"
	}
}

// ParseKind resolves an event-class name as rendered by Kind.String.
func ParseKind(s string) (Kind, bool) {
	for k := Kind(0); int(k) < NumKinds; k++ {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}

// Event is one lifecycle record.
type Event struct {
	// At is the time since the plane was created.
	At time.Duration
	// Conn is the plane-assigned connection id (0: no connection, e.g.
	// a shed accept).
	Conn uint64
	// Kind is the event class.
	Kind Kind
	// Value carries the kind-specific duration (see the Kind constants);
	// zero for marker events.
	Value time.Duration
}

// slot is one seqlocked ring entry. seq is even when the slot is stable
// and odd while a writer owns it; a reader accepts the payload only if
// seq is even and unchanged across the payload loads. All fields are
// atomics, so concurrent access is both race-clean and tear-free.
type slot struct {
	seq  atomic.Uint64
	at   atomic.Int64
	conn atomic.Uint64
	kind atomic.Uint64
	val  atomic.Int64
}

// Ring is a bounded concurrent trace: O(1) lock-free append from any
// number of writers, consistent snapshot reads from any number of
// readers. The zero value is unusable; create with NewRing.
type Ring struct {
	slots []slot
	mask  uint64
	next  atomic.Uint64
}

// NewRing returns a tracer retaining at least capacity events (rounded
// up to a power of two, minimum 16).
func NewRing(capacity int) *Ring {
	n := 16
	for n < capacity {
		n <<= 1
	}
	return &Ring{slots: make([]slot, n), mask: uint64(n - 1)}
}

// Cap returns the number of slots.
func (r *Ring) Cap() int { return len(r.slots) }

// Record appends one event, evicting the oldest when full.
//
//nio:hot
func (r *Ring) Record(at time.Duration, conn uint64, k Kind, v time.Duration) {
	i := r.next.Add(1) - 1
	s := &r.slots[i&r.mask]
	seq := s.seq.Load()
	if seq&1 != 0 || !s.seq.CompareAndSwap(seq, seq+1) {
		// A lapped writer still owns the slot; drop rather than spin —
		// the hot path never waits on the observability plane. The drop
		// needs no count of its own: the event took a position like any
		// other, and the one it failed to replace is still in the slot.
		return
	}
	s.at.Store(int64(at))
	s.conn.Store(conn)
	s.kind.Store(uint64(k))
	s.val.Store(int64(v))
	s.seq.Store(seq + 2)
}

// Len returns the number of retained events.
func (r *Ring) Len() int {
	n := r.next.Load()
	if c := uint64(len(r.slots)); n > c {
		return int(c)
	}
	return int(n)
}

// Dropped returns how many recorded events are no longer retained: the
// positions handed out past the ring's capacity. That covers an event
// skipped on a contended slot too (it can only happen once the ring has
// wrapped): counting skips on top would read retained + dropped above
// the number of Record calls.
func (r *Ring) Dropped() uint64 {
	if n, c := r.next.Load(), uint64(len(r.slots)); n > c {
		return n - c
	}
	return 0
}

// Events returns the retained events, oldest first. Events recorded
// while the snapshot is being taken may or may not appear; every event
// returned is internally consistent (never torn).
func (r *Ring) Events() []Event {
	n := r.next.Load()
	start := uint64(0)
	if c := uint64(len(r.slots)); n > c {
		start = n - c
	}
	out := make([]Event, 0, n-start)
	for i := start; i < n; i++ {
		s := &r.slots[i&r.mask]
		for attempt := 0; attempt < 4; attempt++ {
			s1 := s.seq.Load()
			if s1&1 != 0 {
				continue // writer mid-store; retry
			}
			if s1 == 0 {
				break // claimed but never written (skipped slot)
			}
			ev := Event{
				At:    time.Duration(s.at.Load()),
				Conn:  s.conn.Load(),
				Kind:  Kind(s.kind.Load()),
				Value: time.Duration(s.val.Load()),
			}
			if s.seq.Load() == s1 {
				out = append(out, ev)
				break
			}
		}
	}
	return out
}

// Phases holds the per-phase latency histograms the admin endpoint
// exposes: the decomposition of "why was this request slow?" into the
// queueing, parsing, handling, and writing components.
type Phases struct {
	QueueWait *metrics.Histogram
	Parse     *metrics.Histogram
	Handler   *metrics.Histogram
	Write     *metrics.Histogram
}

// NewPhases returns latency-sized histograms for every phase.
func NewPhases() *Phases {
	return &Phases{
		QueueWait: metrics.NewLatencyHistogram(),
		Parse:     metrics.NewLatencyHistogram(),
		Handler:   metrics.NewLatencyHistogram(),
		Write:     metrics.NewLatencyHistogram(),
	}
}

// Plane bundles the ring, the phase histograms, and per-kind event
// counters into the single object a server is configured with. All
// methods are safe for concurrent use.
//
// Under reactor sharding the ring, the connection-id stream, and the
// per-kind counters stay shared (they are already lock-free and
// multi-writer), but each shard records its phase latencies into its
// own histogram block (see View) so the hot path never contends on a
// cache line with another shard. Readers merge the blocks bucketwise
// via metrics.Dist.Merge — histogram buckets add commutatively, so
// /stats and /rollup stay honest no matter how work spread across
// shards.
type Plane struct {
	start  time.Time
	ring   *Ring
	phases *Phases
	connID atomic.Uint64
	counts [NumKinds]atomic.Int64

	// mu guards extra, the lazily-grown phase blocks of shards >= 1
	// (extra[i] belongs to shard i+1; shard 0 records into phases).
	mu    sync.Mutex
	extra []*Phases
}

// NewPlane returns a plane whose ring retains at least ringCap events.
func NewPlane(ringCap int) *Plane {
	return &Plane{start: time.Now(), ring: NewRing(ringCap), phases: NewPhases()}
}

// NextConnID issues a fresh connection id (ids start at 1; 0 means "no
// connection").
func (p *Plane) NextConnID() uint64 { return p.connID.Add(1) }

// Record logs one lifecycle event: it stamps the ring, bumps the
// per-kind counter, and — for the four phase kinds — feeds the matching
// latency histogram. Allocation-free.
//
//nio:hot
func (p *Plane) Record(conn uint64, k Kind, v time.Duration) {
	p.counts[k].Add(1)
	p.ring.Record(time.Since(p.start), conn, k, v)
	if h := p.phaseFor(k); h != nil {
		h.ObserveDuration(v)
	}
}

func (p *Plane) phaseFor(k Kind) *metrics.Histogram {
	switch k {
	case QueueWait:
		return p.phases.QueueWait
	case Parse:
		return p.phases.Parse
	case Handler:
		return p.phases.Handler
	case WriteComplete:
		return p.phases.Write
	default:
		return nil
	}
}

// Ring returns the trace ring.
func (p *Plane) Ring() *Ring { return p.ring }

// Phases returns shard 0's phase histograms — the only block an
// unsharded server ever records into. Merged readers (the admin
// endpoint, rollup snapshots) must use PhaseDist instead.
func (p *Plane) Phases() *Phases { return p.phases }

// View returns the recording handle for one shard: shard 0 records
// into the plane's legacy block, higher shards into their own lazily
// created blocks. Views share the plane's ring, id stream, and kind
// counters; only the phase histograms are per-shard. Safe to call from
// any goroutine; each shard should call it once at setup and keep the
// handle.
func (p *Plane) View(shard int) *View {
	if shard <= 0 {
		return &View{p: p, ph: p.phases}
	}
	p.mu.Lock()
	for len(p.extra) < shard {
		p.extra = append(p.extra, NewPhases())
	}
	ph := p.extra[shard-1]
	p.mu.Unlock()
	return &View{p: p, ph: ph}
}

// PhaseDist returns one phase's latency distribution merged across
// every shard's histogram block — the consistent read side of sharded
// recording. get selects the phase from a block (see the admin
// endpoint's phase table).
func (p *Plane) PhaseDist(get func(*Phases) *metrics.Histogram) metrics.Dist {
	d := get(p.phases).Dist()
	p.mu.Lock()
	blocks := p.extra
	p.mu.Unlock()
	for _, ph := range blocks {
		d = d.Merge(get(ph).Dist())
	}
	return d
}

// View is one shard's recording handle into a shared Plane.
type View struct {
	p  *Plane
	ph *Phases
}

// Plane returns the shared plane the view records into.
func (v *View) Plane() *Plane { return v.p }

// NextConnID issues a fresh connection id from the plane-wide stream.
func (v *View) NextConnID() uint64 { return v.p.NextConnID() }

// Record logs one lifecycle event exactly like Plane.Record, but phase
// latencies land in this shard's histogram block. Allocation-free.
//
//nio:hot
func (v *View) Record(conn uint64, k Kind, val time.Duration) {
	p := v.p
	p.counts[k].Add(1)
	p.ring.Record(time.Since(p.start), conn, k, val)
	switch k {
	case QueueWait:
		v.ph.QueueWait.ObserveDuration(val)
	case Parse:
		v.ph.Parse.ObserveDuration(val)
	case Handler:
		v.ph.Handler.ObserveDuration(val)
	case WriteComplete:
		v.ph.Write.ObserveDuration(val)
	}
}

// Count returns how many events of the given kind have been recorded.
func (p *Plane) Count(k Kind) int64 { return p.counts[k].Load() }

// OpenConns derives the traced-connections gauge from the lifecycle
// counters. Close is loaded before Accept: every Close has an earlier
// matching Accept, so this ordering makes the gauge non-negative at
// every instant even while both counters are moving.
func (p *Plane) OpenConns() int64 {
	closed := p.counts[Close].Load()
	return p.counts[Accept].Load() - closed
}
