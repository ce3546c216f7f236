//go:build linux

// Package sysfault is a seeded fault-injecting seam over the raw
// syscalls the servers depend on: accept4, read, write (and its
// MSG_MORE spelling, sendto), sendfile, epoll_wait, socket, connect,
// close. Production code calls the wrappers in this package instead of
// the syscall package directly; with no injector installed every
// wrapper is a nil-pointer check away from the real syscall (zero
// allocations, no locks), and with an injector installed every
// injection decision is a pure function of
//
//	(Seed, site, lane, per-(site,lane) call index)
//
// — the same addressed-determinism discipline as internal/faultline's
// per-segment draws — so a failure schedule replays byte-identically
// for a given seed no matter how wall-clock time or scheduling vary.
// The lane is the shard dimension: each reactor shard drives its own
// lane, so every shard owns an independent, independently-replayable
// decision stream, and faults fired on one lane can never perturb the
// call indices or draws of another. Lane 0 is the legacy stream —
// byte-identical to the pre-shard seam (unsharded servers and the
// thread-pool net.Conn seam both live there), which is why the lane is
// mixed into the hash only when nonzero.
// Probability rules are exactly reproducible even under concurrent
// callers (each per-(site,lane) index is claimed atomically and the
// draw depends on nothing else); count-limited rules consume a shared
// budget and are exactly reproducible when the site is driven from a
// single thread (the configuration every deterministic test uses) or
// when the rule is pinned to one lane with Rule.HasLane.
//
// Two deliberate exclusions: the reactor's wakeup pipe is NOT routed
// through the seam (wakeups are scheduling-dependent, so routing them
// would perturb site indices and destroy replay), and EINTR is
// absorbed INSIDE the wrappers (a signal retry is not an event, must
// not consume an injection index, and must not leak to call sites —
// callers owe only EAGAIN classification, which the syscallerr
// analyzer enforces at seam call sites).
package sysfault

import (
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// Site identifies one syscall chokepoint class.
type Site uint8

const (
	SiteAccept Site = iota
	SiteRead
	SiteWrite
	SiteSendfile
	SiteEpollWait
	SiteSocket
	SiteConnect
	SiteClose
	NumSites = int(SiteClose) + 1
)

var siteNames = [NumSites]string{
	SiteAccept:    "accept",
	SiteRead:      "read",
	SiteWrite:     "write",
	SiteSendfile:  "sendfile",
	SiteEpollWait: "epoll_wait",
	SiteSocket:    "socket",
	SiteConnect:   "connect",
	SiteClose:     "close",
}

func (s Site) String() string {
	if int(s) < NumSites {
		return siteNames[s]
	}
	return fmt.Sprintf("site(%d)", uint8(s))
}

// ParseSite resolves a site name from a fault-plan spec.
func ParseSite(name string) (Site, error) {
	for i, n := range siteNames {
		if n == name {
			return Site(i), nil
		}
	}
	return 0, fmt.Errorf("sysfault: unknown site %q", name)
}

// Lane identifies one shard's decision stream. Every wrapper takes the
// caller's lane; each (site, lane) pair owns its own call-index stream
// and its own position in the seeded hash, so shard 0's faults can
// never perturb shard 1's decisions. Lane 0 is the legacy pre-shard
// stream. Lanes at or beyond MaxLanes are folded back by masking
// (MaxLanes is a power of two), which keeps the arrays bounded while
// staying deterministic for any shard count.
type Lane uint32

// MaxLanes bounds the per-lane accounting arrays; lanes wrap modulo
// MaxLanes. 64 comfortably exceeds any realistic shard count.
const MaxLanes = 64

func (l Lane) index() int { return int(l) & (MaxLanes - 1) }

// Rule arms one fault class at one site. Errno == 0 means a short
// transfer of Len bytes (meaningful at write/sendfile/read); any other
// value is returned from the wrapper without performing the syscall —
// except at the close site, where the real close always runs first so
// an injected close error can never leak a descriptor.
type Rule struct {
	Site  Site
	Errno syscall.Errno // 0 => short transfer of Len bytes
	Prob  float64       // per-call fire probability in [0, 1]
	After uint64        // first eligible per-(site,lane) call index (0 = immediately)
	Count int           // max fires; <= 0 means unlimited
	Len   int           // short-transfer length (clamped to >= 1)
	// HasLane pins the rule to one shard's stream; the zero value arms
	// the rule on every lane (an unsharded server only ever has lane 0,
	// so pre-shard rule literals keep their meaning unchanged).
	HasLane bool
	Lane    Lane
}

// Decision is one fired injection, addressed by (site, lane) and the
// per-(site,lane) call index — the unit of the determinism golden.
type Decision struct {
	Site  Site
	Lane  Lane
	Index uint64
	Errno syscall.Errno // 0 => short transfer
	Len   int
}

func (d Decision) String() string {
	site := d.Site.String()
	if d.Lane != 0 {
		site = fmt.Sprintf("%s@%d", site, d.Lane)
	}
	if d.Errno == 0 {
		return fmt.Sprintf("%s[%d] short(%d)", site, d.Index, d.Len)
	}
	return fmt.Sprintf("%s[%d] %s", site, d.Index, ErrnoName(d.Errno))
}

// SiteStat is one site's call/fire accounting.
type SiteStat struct {
	Calls uint64
	Fires uint64
}

type compiledRule struct {
	Rule
	fired atomic.Int64
}

// decisionLogCap bounds the replay log; fires beyond it are counted
// but not retained (the golden tests never come near the cap).
const decisionLogCap = 4096

// Injector evaluates a rule set against the per-(site,lane) call
// streams.
type Injector struct {
	seed   uint64
	bySite [NumSites][]*compiledRule
	calls  [NumSites][MaxLanes]atomic.Uint64
	fires  [NumSites][MaxLanes]atomic.Uint64

	mu  sync.Mutex
	log []Decision
}

// New compiles a rule set under a seed. Rules at the same site are
// evaluated in the order given; the first that fires wins the call.
func New(seed uint64, rules ...Rule) *Injector {
	inj := &Injector{seed: seed}
	for _, r := range rules {
		if int(r.Site) >= NumSites {
			continue
		}
		if r.Len < 1 {
			r.Len = 1
		}
		if r.Prob > 1 {
			r.Prob = 1
		}
		inj.bySite[r.Site] = append(inj.bySite[r.Site], &compiledRule{Rule: r})
	}
	return inj
}

// Seed returns the seed the injector draws from.
func (inj *Injector) Seed() uint64 { return inj.seed }

// splitmix64 is the SplitMix64 finalizer: a full-avalanche mix of one
// 64-bit word, the hash primitive behind every addressed draw.
func splitmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// drawFloat maps (seed, site, lane, index, rule) to a uniform float in
// [0, 1) by hashing the full address — no sequential RNG stream
// exists, so concurrent sites (and concurrent lanes) cannot perturb
// each other's draws. Lane 0 skips the lane mix so the unsharded
// stream stays byte-identical to the pre-shard seam.
func drawFloat(seed uint64, s Site, lane Lane, idx uint64, rule int) float64 {
	h := splitmix64(seed ^ 0x9e3779b97f4a7c15)
	h = splitmix64(h ^ (uint64(s) + 1))
	if lane != 0 {
		h = splitmix64(h ^ (0xd1b54a32d192ed03 + uint64(lane)))
	}
	h = splitmix64(h ^ idx)
	h = splitmix64(h ^ uint64(rule))
	return float64(h>>11) / (1 << 53)
}

type outcome struct {
	fire  bool
	errno syscall.Errno // 0 => short transfer
	len   int
	idx   uint64
}

// decide claims the next call index at (site, lane) and evaluates the
// site's rules against that lane's stream.
func (inj *Injector) decide(s Site, lane Lane) outcome {
	li := lane.index()
	idx := inj.calls[s][li].Add(1) - 1
	for ri, r := range inj.bySite[s] {
		if r.HasLane && r.Lane.index() != li {
			continue
		}
		if idx < r.After {
			continue
		}
		if r.Prob < 1 && drawFloat(inj.seed, s, lane, idx, ri) >= r.Prob {
			continue
		}
		if r.Count > 0 && r.fired.Add(1) > int64(r.Count) {
			continue
		}
		if r.Count <= 0 {
			r.fired.Add(1)
		}
		inj.fires[s][li].Add(1)
		inj.mu.Lock()
		if len(inj.log) < decisionLogCap {
			inj.log = append(inj.log, Decision{Site: s, Lane: lane, Index: idx, Errno: r.Errno, Len: r.Len})
		}
		inj.mu.Unlock()
		return outcome{fire: true, errno: r.Errno, len: r.Len, idx: idx}
	}
	return outcome{idx: idx}
}

// Step advances site s by one call index on lane 0 exactly as a
// wrapper would — without any syscall — and reports the decision
// taken. It exists for the determinism goldens and the demo: a
// schedule can be enumerated offline and compared against what live
// wrappers actually did.
func (inj *Injector) Step(s Site) (Decision, bool) { return inj.StepLane(s, 0) }

// StepLane is Step on an explicit lane — the offline replay primitive
// for per-shard decision streams.
func (inj *Injector) StepLane(s Site, lane Lane) (Decision, bool) {
	oc := inj.decide(s, lane)
	if !oc.fire {
		return Decision{}, false
	}
	return Decision{Site: s, Lane: lane, Index: oc.idx, Errno: oc.errno, Len: oc.len}, true
}

// Decisions returns a copy of the fired-injection log in fire order.
func (inj *Injector) Decisions() []Decision {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	out := make([]Decision, len(inj.log))
	copy(out, inj.log)
	return out
}

// Stats returns per-site call and fire counts summed across lanes.
func (inj *Injector) Stats() [NumSites]SiteStat {
	var out [NumSites]SiteStat
	for i := range out {
		for l := 0; l < MaxLanes; l++ {
			out[i].Calls += inj.calls[i][l].Load()
			out[i].Fires += inj.fires[i][l].Load()
		}
	}
	return out
}

// LaneStats returns per-site call and fire counts for one lane's
// stream only — the unit the per-shard offline replay compares.
func (inj *Injector) LaneStats(lane Lane) [NumSites]SiteStat {
	li := lane.index()
	var out [NumSites]SiteStat
	for i := range out {
		out[i] = SiteStat{Calls: inj.calls[i][li].Load(), Fires: inj.fires[i][li].Load()}
	}
	return out
}

// ---------------------------------------------------------------------
// Global seam
// ---------------------------------------------------------------------

var current atomic.Pointer[Injector]

// Install arms inj globally. Passing nil disarms (same as Uninstall).
func Install(inj *Injector) { current.Store(inj) }

// Uninstall disarms the seam; wrappers revert to pure passthrough.
func Uninstall() { current.Store(nil) }

// Active returns the installed injector, or nil.
func Active() *Injector { return current.Load() }

// ---------------------------------------------------------------------
// Syscall wrappers. Each consumes exactly one injection index per call
// on the caller's lane (EINTR retries happen inside and do not consume
// indices), injects BEFORE the real syscall, and owes its caller
// EAGAIN classification only — EINTR never escapes a wrapper.
// ---------------------------------------------------------------------

// Accept4 accepts one connection. An injected errno (EMFILE, ENFILE,
// ECONNABORTED, ...) is returned without accepting.
func Accept4(lane Lane, lfd, flags int) (int, error) {
	if inj := current.Load(); inj != nil {
		if oc := inj.decide(SiteAccept, lane); oc.fire && oc.errno != 0 {
			return -1, oc.errno
		}
	}
	for {
		nfd, _, err := syscall.Accept4(lfd, flags)
		if err == syscall.EINTR {
			continue
		}
		return nfd, err
	}
}

// Read reads into p. An injected errno (ECONNRESET, EIO, ...) is
// returned without reading; a short injection truncates the buffer.
func Read(lane Lane, fd int, p []byte) (int, error) {
	if inj := current.Load(); inj != nil {
		if oc := inj.decide(SiteRead, lane); oc.fire {
			if oc.errno != 0 {
				return 0, oc.errno
			}
			if oc.len < len(p) {
				p = p[:oc.len]
			}
		}
	}
	for {
		n, err := syscall.Read(fd, p)
		if err == syscall.EINTR {
			continue
		}
		return n, err
	}
}

// injectWrite claims one SiteWrite index on lane and applies the
// decision: an injected errno is returned (the caller skips the
// syscall), a short injection truncates p. Write and WriteMore share
// it, so the two consume one (site, lane, index) stream with identical
// semantics — which wrapper a call site picks can never shift a seeded
// schedule.
func (inj *Injector) injectWrite(lane Lane, p []byte) ([]byte, syscall.Errno) {
	if oc := inj.decide(SiteWrite, lane); oc.fire {
		if oc.errno != 0 {
			return p, oc.errno
		}
		if oc.len < len(p) {
			p = p[:oc.len]
		}
	}
	return p, 0
}

// Write writes p. An injected errno (ENOBUFS, ECONNRESET, EPIPE, ...)
// is returned without writing; a short injection truncates p so the
// kernel really does deliver only the prefix — callers must already
// cope with partial writes, which is exactly what the injection tests.
func Write(lane Lane, fd int, p []byte) (int, error) {
	if inj := current.Load(); inj != nil {
		var errno syscall.Errno
		if p, errno = inj.injectWrite(lane, p); errno != 0 {
			return 0, errno
		}
	}
	for {
		n, err := syscall.Write(fd, p)
		if err == syscall.EINTR {
			continue
		}
		return n, err
	}
}

// WriteMore is Write for a socket when the caller already has more
// output queued behind p: the bytes go out with MSG_MORE, so TCP holds
// a trailing partial segment for the write that follows instead of
// pushing it (and waking the reader) now. It is a call at the SAME
// SiteWrite site as Write — one index per call, errno injected before
// the syscall, short injection truncating p, EINTR absorbed — so
// swapping one for the other leaves every seeded decision stream
// untouched. The caller owes the socket a following unflagged write
// (or a close); the kernel flushes an abandoned cork only after 200 ms.
func WriteMore(lane Lane, fd int, p []byte) (int, error) {
	if inj := current.Load(); inj != nil {
		var errno syscall.Errno
		if p, errno = inj.injectWrite(lane, p); errno != 0 {
			return 0, errno
		}
	}
	// syscall.Sendto drops the byte count, so the call is spelled raw.
	// A nil base is fine for len 0; MSG_NOSIGNAL matches what the Go
	// runtime already arranges for write(2) on a socket (EPIPE, no
	// SIGPIPE).
	var base unsafe.Pointer
	if len(p) > 0 {
		base = unsafe.Pointer(&p[0])
	}
	for {
		n, _, errno := syscall.Syscall6(syscall.SYS_SENDTO, uintptr(fd), uintptr(base), uintptr(len(p)),
			syscall.MSG_MORE|syscall.MSG_NOSIGNAL, 0, 0)
		if errno == syscall.EINTR {
			continue
		}
		if errno != 0 {
			return 0, errno
		}
		return int(n), nil
	}
}

// Sendfile moves up to max bytes from srcFD at *off into fd. An
// injected errno (EINVAL, EIO, ...) is returned without moving
// anything (*off untouched — precisely the contract the buffered
// fallback path relies on); a short injection caps max.
func Sendfile(lane Lane, fd, srcFD int, off *int64, max int) (int, error) {
	if inj := current.Load(); inj != nil {
		if oc := inj.decide(SiteSendfile, lane); oc.fire {
			if oc.errno != 0 {
				return 0, oc.errno
			}
			if oc.len < max {
				max = oc.len
			}
		}
	}
	for {
		n, err := syscall.Sendfile(fd, srcFD, off, max)
		if err == syscall.EINTR {
			continue
		}
		return n, err
	}
}

// EpollWait waits for readiness events. EINTR is absorbed here (the
// one place the reactor used to need retryEINTR for it), so callers
// see only real errors.
func EpollWait(lane Lane, epfd int, events []syscall.EpollEvent, msec int) (int, error) {
	if inj := current.Load(); inj != nil {
		if oc := inj.decide(SiteEpollWait, lane); oc.fire && oc.errno != 0 {
			return 0, oc.errno
		}
	}
	for {
		n, err := syscall.EpollWait(epfd, events, msec)
		if err == syscall.EINTR {
			continue
		}
		return n, err
	}
}

// Socket creates a socket. An injected errno (EMFILE, ENFILE,
// ENOBUFS, ...) is returned without creating one.
func Socket(lane Lane, domain, typ, proto int) (int, error) {
	if inj := current.Load(); inj != nil {
		if oc := inj.decide(SiteSocket, lane); oc.fire && oc.errno != 0 {
			return -1, oc.errno
		}
	}
	return syscall.Socket(domain, typ, proto)
}

// Connect starts a connect. An injected errno (ECONNREFUSED,
// EADDRNOTAVAIL, ETIMEDOUT, ...) is returned without touching the
// socket; the caller owns — and must still close — the fd either way.
func Connect(lane Lane, fd int, sa syscall.Sockaddr) error {
	if inj := current.Load(); inj != nil {
		if oc := inj.decide(SiteConnect, lane); oc.fire && oc.errno != 0 {
			return oc.errno
		}
	}
	for {
		err := syscall.Connect(fd, sa)
		if err == syscall.EINTR {
			continue
		}
		return err
	}
}

// Close closes fd. The REAL close always runs — an injected errno is
// reported afterwards, so the seam can exercise close-error handling
// without ever leaking a descriptor.
func Close(lane Lane, fd int) error {
	err := syscall.Close(fd)
	if inj := current.Load(); inj != nil {
		if oc := inj.decide(SiteClose, lane); oc.fire && oc.errno != 0 {
			return oc.errno
		}
	}
	return err
}
