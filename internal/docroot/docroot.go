//go:build linux

// Package docroot is the disk-backed content store shared by both live
// servers: a real filesystem directory served through a bounded-byte LRU
// cache of open file descriptors and (for small objects) in-memory
// bodies, with per-file validators (ETag, Last-Modified) computed at
// open time.
//
// It exists because the paper's httpd2 baseline served a real SURGE file
// set from disk while our seed stores answered from memory, so the
// reproduction never exercised the filesystem, the page cache, or the
// copy costs that dominate real static serving. The docroot restores
// that substrate and adds the modern lever the related work identifies
// as first-order (Voras & Žagar; Ruhland et al.): zero-copy delivery.
// A cache miss hands the server a shared open fd to drive sendfile(2)
// from; a cache hit hands it an in-memory body for the buffered path.
//
// Entries are reference counted: the cache holds one reference, every
// in-flight response holds another, and sendfile with an explicit offset
// never touches the shared fd's file position — so one fd serves any
// number of concurrent responses and survives eviction until the last
// response finishes.
//
// The descriptors are raw: Entry holds the int that open(2) returned,
// not an *os.File, whose open-to-close costs nine syscalls where four do
// the work (DESIGN.md §7). Those four are issued here directly, and the
// refcount is the only thing that closes a descriptor.
package docroot

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/dist"
	"repro/internal/httpwire"
	"repro/internal/invariant"
	"repro/internal/metrics"
	"repro/internal/surge"
)

// Entry is one openable file: metadata plus either a cached body (serve
// buffered) or just the shared open fd (serve via sendfile). Callers
// must Release every Entry obtained from Get exactly once, after the
// last byte has been queued or sent.
type Entry struct {
	// Size is the file length in bytes.
	Size int64
	// ModTime is the file's modification time.
	ModTime time.Time
	// ETag is the strong validator, quotes included (size-mtime hex).
	ETag string
	// LastModified is ModTime preformatted as an HTTP-date.
	LastModified string
	// ContentType is inferred from the file extension.
	ContentType string

	fd   int
	body []byte
	refs atomic.Int32

	// cache bookkeeping (owned by Root.mu)
	key    string
	charge int64
	lru    lruNode
}

// Body returns the in-memory body, or nil when the entry is fd-only and
// must be delivered with sendfile. The slice outlives Release — it is
// immutable and garbage collected — so buffered responses may Release
// immediately after queueing it.
func (e *Entry) Body() []byte { return e.body }

// FD returns the shared open file descriptor. Valid until Release;
// always read it with an explicit offset (pread/sendfile-with-offset),
// never through the fd's file position.
func (e *Entry) FD() int { return e.fd }

// ReadAt reads from the entry's file at an explicit offset (the
// buffered fallback when sendfile is refused). It follows io.ReaderAt:
// a read that comes up short reports why, io.EOF at the end of the file.
func (e *Entry) ReadAt(p []byte, off int64) (int, error) {
	n, err := preadFull(e.fd, p, off)
	if err != nil && err != io.EOF {
		err = &os.PathError{Op: "read", Path: e.key, Err: err}
	}
	return n, err
}

// Release drops one reference; the fd closes when the cache and every
// in-flight response are done with it. Nothing else ever closes it —
// there is no finalizer behind a raw descriptor — so a reference never
// released is a leaked descriptor, and one released twice closes a
// number the kernel may already have handed to a socket (niovet's
// refbalance and the invariant build guard both).
func (e *Entry) Release() {
	n := e.refs.Add(-1)
	if invariant.Enabled {
		invariant.Assertf(n >= 0,
			"docroot: entry %q refcount went negative (%d): double Release", e.key, n)
	}
	if n == 0 {
		// Not retried on EINTR: Linux has released the number by the
		// time close(2) returns, whatever it returns.
		_ = syscall.Close(e.fd)
	}
}

// Config parameterizes a Root.
type Config struct {
	// Dir is the directory to serve. Required; must exist.
	Dir string
	// CacheBytes bounds the cache's total charge (body bytes plus a
	// fixed per-entry overhead). <= 0 disables caching entirely: every
	// Get opens the file fresh and Release closes it.
	CacheBytes int64
	// MemLimit is the largest body held in memory. Files at most this
	// size are served from cached bytes (the buffered path); larger
	// files keep only the open fd cached and are served zero-copy.
	// 0 means no bodies are cached — everything goes through sendfile.
	MemLimit int64
}

// DefaultMemLimit is the per-object body-cache ceiling Open picks:
// large enough to keep the SURGE body mass in memory, small enough that
// the heavy tail stays on the sendfile path.
const DefaultMemLimit = 256 << 10

// entryOverhead is the nominal cache charge for an entry's fd and
// metadata, so even a body-less (fd-only) cache is bounded.
const entryOverhead = 4096

// Root serves one directory through the content cache.
type Root struct {
	dir string
	cfg Config

	mu    sync.Mutex
	items map[string]*Entry
	head  lruNode // sentinel: head.next is most recent, head.prev least
	used  int64

	hits      metrics.Counter
	misses    metrics.Counter
	evictions metrics.Counter
	opens     metrics.Counter
	pressure  metrics.Counter
	errors    metrics.Counter
}

// Stats is a snapshot of the cache counters.
type Stats struct {
	// Hits and Misses count cache lookups; Misses includes paths that
	// turned out not to exist.
	Hits, Misses int64
	// Evictions counts entries pushed out by the byte budget.
	Evictions int64
	// Opens counts actual open(2) calls (misses that found a file).
	Opens int64
	// PressureEvictions counts entries shed by ShedFDs under
	// descriptor pressure (included in Evictions).
	PressureEvictions int64
	// Errors counts Gets that failed for a reason other than NotFound:
	// descriptor exhaustion and I/O errors, the lookups a server answers
	// with 503 or 500 (included in Misses).
	Errors int64
	// CachedBytes and CachedEntries describe the current cache content.
	CachedBytes   int64
	CachedEntries int
}

// New validates cfg and returns a Root over cfg.Dir.
func New(cfg Config) (*Root, error) {
	fi, err := os.Stat(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("docroot: %w", err)
	}
	if !fi.IsDir() {
		return nil, fmt.Errorf("docroot: %s is not a directory", cfg.Dir)
	}
	if cfg.MemLimit < 0 {
		return nil, fmt.Errorf("docroot: negative MemLimit %d", cfg.MemLimit)
	}
	r := &Root{dir: cfg.Dir, cfg: cfg, items: make(map[string]*Entry)}
	r.head.next = &r.head
	r.head.prev = &r.head
	return r, nil
}

// Open returns a Root with the default body-cache policy: cacheBytes of
// total budget, bodies up to DefaultMemLimit (but never more than a
// quarter of the budget) held in memory.
func Open(dir string, cacheBytes int64) (*Root, error) {
	memLimit := int64(DefaultMemLimit)
	if q := cacheBytes / 4; q < memLimit {
		memLimit = q
	}
	if memLimit < 0 {
		memLimit = 0
	}
	return New(Config{Dir: dir, CacheBytes: cacheBytes, MemLimit: memLimit})
}

// Dir returns the served directory.
func (r *Root) Dir() string { return r.dir }

// Stats returns a snapshot of the cache counters.
func (r *Root) Stats() Stats {
	r.mu.Lock()
	used, n := r.used, len(r.items)
	r.mu.Unlock()
	return Stats{
		Hits:              r.hits.Value(),
		Misses:            r.misses.Value(),
		Evictions:         r.evictions.Value(),
		Opens:             r.opens.Value(),
		PressureEvictions: r.pressure.Value(),
		Errors:            r.errors.Value(),
		CachedBytes:       used,
		CachedEntries:     n,
	}
}

// NotFound reports whether a Get error means the path has no servable
// file (→ 404), as opposed to an I/O failure.
func NotFound(err error) bool {
	var pe *pathError
	// ENOTDIR: a path component that exists but is a file ("/a.txt/x").
	return errors.Is(err, fs.ErrNotExist) || errors.Is(err, syscall.ENOTDIR) ||
		errors.As(err, &pe)
}

// FDExhausted reports whether a Get error means the process (EMFILE) or
// the system (ENFILE) is out of file descriptors (→ ShedFDs, then 503
// with Retry-After): the file may well exist, and will open once
// descriptors have been given back.
func FDExhausted(err error) bool {
	return errors.Is(err, syscall.EMFILE) || errors.Is(err, syscall.ENFILE)
}

// pathError marks URL paths the docroot refuses to resolve (escapes,
// non-regular files, embedded NULs).
type pathError struct{ path string }

func (e *pathError) Error() string { return "docroot: unservable path " + strconv.Quote(e.path) }

// Get resolves a URL path to an Entry, consulting the cache first. The
// caller owns one reference and must Release it. Errors satisfying
// NotFound should be answered with 404, FDExhausted with 503, anything
// else with 500. A hit allocates nothing: the filesystem path is built
// only by a miss.
//
//nio:hot
func (r *Root) Get(urlPath string) (*Entry, error) {
	key, ok := resolve(urlPath)
	if !ok {
		return r.refuse(urlPath)
	}
	if r.cfg.CacheBytes > 0 {
		if e := r.cacheGet(key); e != nil {
			return e, nil
		}
	}
	return r.miss(key)
}

// refuse counts the lookup of a path resolve rejected.
func (r *Root) refuse(urlPath string) (*Entry, error) {
	r.misses.Inc()
	return nil, &pathError{urlPath}
}

// miss opens the file behind key and offers it to the cache.
func (r *Root) miss(key string) (*Entry, error) {
	r.misses.Inc()
	e, err := r.openEntry(key)
	if err != nil {
		if !NotFound(err) {
			r.errors.Inc()
		}
		return nil, err
	}
	r.opens.Inc()
	if r.cfg.CacheBytes <= 0 {
		return e, nil
	}
	return r.cacheInsert(e), nil
}

// resolve canonicalizes a URL path into the cache key — the rooted,
// cleaned path, which is also the file's path below Dir. Rooted
// path.Clean cannot escape "/", so the docroot never serves outside
// Dir; directory requests map to their index.html. A path that is
// already clean (every /obj/<id>) comes back as a substring of the
// argument.
//
//nio:hot
func resolve(urlPath string) (key string, ok bool) {
	if urlPath == "" || urlPath[0] != '/' || strings.IndexByte(urlPath, 0) >= 0 {
		return "", false
	}
	if i := strings.IndexByte(urlPath, '?'); i >= 0 {
		urlPath = urlPath[:i]
	}
	p := path.Clean(urlPath)
	if p == "/" || strings.HasSuffix(urlPath, "/") {
		p = path.Join(p, "index.html")
	}
	return p, true
}

// openEntry opens and stats the file behind key and builds its Entry
// (refs = 1, owned by the caller), loading the body when the policy
// allows. Failures carry the *os.PathError os.Open would have returned,
// so they classify as they always have.
func (r *Root) openEntry(key string) (*Entry, error) {
	file := filepath.Join(r.dir, filepath.FromSlash(key[1:]))
	var (
		fd  int
		err error
	)
open:
	for {
		fd, err = syscall.Open(file, openFlags, 0)
		switch err {
		case nil:
			break open
		case syscall.EINTR:
			// a signal landed: again
		case syscall.ENXIO:
			// A unix socket: the one non-regular file open(2) itself
			// turns down. Unservable like those fstat turns down below.
			return nil, &pathError{key}
		default:
			return nil, &os.PathError{Op: "open", Path: file, Err: err}
		}
	}
	var st syscall.Stat_t
	if err := fstat(fd, &st); err != nil {
		_ = syscall.Close(fd)
		return nil, &os.PathError{Op: "stat", Path: file, Err: err}
	}
	if st.Mode&syscall.S_IFMT != syscall.S_IFREG {
		_ = syscall.Close(fd)
		return nil, &pathError{key}
	}
	mtime := time.Unix(st.Mtim.Unix())
	e := &Entry{
		Size:         st.Size,
		ModTime:      mtime,
		ETag:         etagFor(st.Size, mtime),
		LastModified: httpwire.FormatHTTPDate(mtime),
		ContentType:  TypeByExt(key),
		fd:           fd,
		key:          key,
		charge:       entryOverhead,
	}
	e.lru.ent = e
	e.refs.Store(1)
	if e.Size > 0 && e.Size <= r.cfg.MemLimit {
		if e.body, err = readBody(fd, e.Size); err != nil {
			_ = syscall.Close(fd)
			return nil, &os.PathError{Op: "read", Path: file, Err: err}
		}
		e.charge += e.Size
	}
	return e, nil
}

// etagFor derives the strong validator from file metadata: size and
// mtime in hex. Deterministic materialization (fixed mtimes) therefore
// yields identical ETags across servers and across runs.
func etagFor(size int64, mtime time.Time) string {
	return `"` + strconv.FormatInt(size, 16) + "-" +
		strconv.FormatInt(mtime.UnixNano(), 16) + `"`
}

// ---------------------------------------------------------------------
// SURGE materialization
// ---------------------------------------------------------------------

// surgeEpoch is the fixed mtime stamped on materialized objects so
// validators are identical across servers, runs, and machines.
var surgeEpoch = time.Unix(1_000_000_000, 0)

// SurgeBlob generates the shared pseudo-random content blob all SURGE
// object bodies are views of; it is deterministic in seed and identical
// to what core.SurgeStore serves from memory.
func SurgeBlob(maxObjectBytes int64, seed uint64) []byte {
	blob := make([]byte, maxObjectBytes)
	rng := dist.NewRNG(seed)
	for i := 0; i+8 <= len(blob); i += 8 {
		v := rng.Uint64()
		for j := 0; j < 8; j++ {
			blob[i+j] = byte(v >> (8 * j))
		}
	}
	return blob
}

// MaterializeSurge writes set's objects as real files under dir/obj/<id>
// — the URL layout both servers already use — with contents identical to
// core.NewSurgeStore(set, maxObjectBytes, seed) and a fixed mtime, so a
// disk-backed server and an in-memory one are byte-for-byte comparable.
func MaterializeSurge(dir string, set *surge.ObjectSet, maxObjectBytes int64, seed uint64) error {
	blob := SurgeBlob(maxObjectBytes, seed)
	objDir := filepath.Join(dir, "obj")
	if err := os.MkdirAll(objDir, 0o755); err != nil {
		return fmt.Errorf("docroot: materialize: %w", err)
	}
	for i := 0; i < set.Len(); i++ {
		o := set.Object(i)
		size := o.Size
		if size > int64(len(blob)) {
			size = int64(len(blob))
		}
		name := filepath.Join(objDir, strconv.Itoa(o.ID))
		if err := os.WriteFile(name, blob[:size], 0o644); err != nil {
			return fmt.Errorf("docroot: materialize %s: %w", name, err)
		}
		if err := os.Chtimes(name, surgeEpoch, surgeEpoch); err != nil {
			return fmt.Errorf("docroot: materialize %s: %w", name, err)
		}
	}
	return nil
}
