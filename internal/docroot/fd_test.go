//go:build linux

package docroot

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"

	"repro/internal/invariant"
)

// A Get of a cached key must not allocate: resolve returns the key as a
// substring of the request path, the on-disk path is a miss's business,
// and the LRU node lives inside the Entry.
func TestGetHitAllocatesNothing(t *testing.T) {
	if invariant.Enabled {
		t.Skip("the invariant build's assertions box their arguments")
	}
	dir := t.TempDir()
	writeFile(t, dir, "obj/7", bytes.Repeat([]byte("x"), 1<<10))
	r, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	e, err := r.Get("/obj/7") // warm the key
	if err != nil {
		t.Fatal(err)
	}
	e.Release()
	allocs := testing.AllocsPerRun(1000, func() {
		e, err := r.Get("/obj/7")
		if err != nil {
			t.Fatal(err)
		}
		e.Release()
	})
	if allocs != 0 {
		t.Fatalf("Get of a warm key allocates %.1f times, want 0", allocs)
	}
	if st := r.Stats(); st.Hits != 1001 || st.Opens != 1 {
		t.Fatalf("stats = %+v: the measured Gets were not all hits", st)
	}
}

// An insert that evicts must not allocate for the eviction: the evicted
// entries are chained through their own list nodes. What is left is the
// miss itself — the path, the Entry, its validators.
func TestEvictionAllocatesNothingOfItsOwn(t *testing.T) {
	if invariant.Enabled {
		t.Skip("the invariant build's assertions box their arguments")
	}
	dir := t.TempDir()
	writeFile(t, dir, "a", []byte("a"))
	writeFile(t, dir, "b", []byte("b"))
	cold, err := New(Config{Dir: dir}) // no cache: every Get is a bare miss
	if err != nil {
		t.Fatal(err)
	}
	one, err := New(Config{Dir: dir, CacheBytes: entryOverhead}) // room for one: every miss evicts
	if err != nil {
		t.Fatal(err)
	}
	alternate := func(r *Root) func() {
		paths, i := []string{"/a", "/b"}, 0
		return func() {
			e, err := r.Get(paths[i&1])
			if err != nil {
				t.Fatal(err)
			}
			e.Release()
			i++
		}
	}
	bare := testing.AllocsPerRun(200, alternate(cold))
	evicting := testing.AllocsPerRun(200, alternate(one))
	if st := one.Stats(); st.Hits != 0 || st.Evictions < 200 {
		t.Fatalf("stats = %+v: the measured Gets were not evicting misses", st)
	}
	if evicting > bare {
		t.Fatalf("an evicting miss allocates %.1f times, a bare miss %.1f", evicting, bare)
	}
}

func fstatErr(fd int) error {
	var st syscall.Stat_t
	return fstat(fd, &st)
}

// The refcount is all that stands between a descriptor and close(2): an
// evicted entry a response still holds keeps a live fd, and the last
// Release — not a finalizer, there is none — closes it.
func TestDescriptorClosesWithLastReference(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "held.bin", bytes.Repeat([]byte("h"), 8<<10))
	writeFile(t, dir, "other.bin", bytes.Repeat([]byte("o"), 8<<10))
	r, err := New(Config{Dir: dir, CacheBytes: entryOverhead, MemLimit: 0}) // one fd-only entry
	if err != nil {
		t.Fatal(err)
	}
	held, err := r.Get("/held.bin")
	if err != nil {
		t.Fatal(err)
	}
	fd := held.FD()
	other, err := r.Get("/other.bin") // pushes held.bin out of the cache
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats().Evictions != 1 {
		t.Fatalf("stats = %+v, want one eviction", r.Stats())
	}
	if err := fstatErr(fd); err != nil {
		t.Fatalf("fstat of an evicted entry still referenced: %v", err)
	}
	buf := make([]byte, 4)
	if _, err := held.ReadAt(buf, 8<<10-4); err != nil || string(buf) != "hhhh" {
		t.Fatalf("ReadAt on an evicted entry still referenced = %q, %v", buf, err)
	}
	held.Release()
	if err := fstatErr(fd); err != syscall.EBADF {
		t.Fatalf("fstat after the last Release = %v, want EBADF", err)
	}
	// The cached entry survives its caller's Release and goes with ShedFDs.
	fd = other.FD()
	other.Release()
	if err := fstatErr(fd); err != nil {
		t.Fatalf("fstat of a cached entry nobody holds: %v", err)
	}
	if n := r.ShedFDs(8); n != 1 {
		t.Fatalf("ShedFDs = %d, want 1", n)
	}
	if err := fstatErr(fd); err != syscall.EBADF {
		t.Fatalf("fstat after ShedFDs = %v, want EBADF", err)
	}
}

func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

// With os.File gone nothing sweeps up after a missed close, so the
// process's descriptor table is the oracle: 10 000 Gets through a
// 64-entry cache — hits, misses, evictions, error paths — and a final
// ShedFDs must leave exactly the descriptors the test started with.
// (CI runs this -count=20.)
func TestNoDescriptorLeak(t *testing.T) {
	dir := t.TempDir()
	const files = 200
	for i := 0; i < files; i++ {
		// Every third file is above MemLimit: an fd-only entry.
		size := 512
		if i%3 == 0 {
			size = 3 << 10
		}
		writeFile(t, dir, "obj/"+strconv.Itoa(i), bytes.Repeat([]byte{byte(i)}, size))
	}
	if err := os.Mkdir(filepath.Join(dir, "obj", "dir"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink("loop", filepath.Join(dir, "obj", "loop")); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Mkfifo(filepath.Join(dir, "obj", "fifo"), 0o644); err != nil {
		t.Fatal(err)
	}
	baseline := openFDs(t)
	r, err := New(Config{Dir: dir, CacheBytes: 64 * (entryOverhead + 512), MemLimit: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	var held []*Entry
	x := uint32(1)
	for i := 0; i < 10_000; i++ {
		x = x*1664525 + 1013904223
		name := strconv.Itoa(int(x>>8) % files)
		switch i % 50 {
		case 0:
			name = "missing"
		case 1:
			name = "dir" // opens, then fstat refuses it
		case 2:
			name = "loop" // open fails ELOOP
		case 3:
			name = "fifo" // opens at once (O_NONBLOCK), then fstat refuses it
		}
		e, err := r.Get("/obj/" + name)
		if err != nil {
			continue
		}
		// Keep a few references across later evictions, as a response
		// in mid-sendfile would.
		if i%7 == 0 {
			held = append(held, e)
			if len(held) > 16 {
				held[0].Release()
				held = held[1:]
			}
			continue
		}
		e.Release()
	}
	for _, e := range held {
		e.Release()
	}
	st := r.Stats()
	if st.Evictions == 0 || st.Hits == 0 || st.Errors != 200 {
		t.Fatalf("stats = %+v: the walk did not exercise hits, evictions and 200 I/O errors", st)
	}
	r.ShedFDs(st.CachedEntries)
	if st := r.Stats(); st.CachedEntries != 0 || st.CachedBytes != 0 {
		t.Fatalf("after ShedFDs: %+v", st)
	}
	if got := openFDs(t); got != baseline {
		t.Fatalf("%d descriptors open, %d before the first Get: leaked %d", got, baseline, got-baseline)
	}
}

// fstat promised size bytes; if the file has since been cut short the
// body load must fail, never hand out a buffer whose tail was not read.
func TestTruncatedFileIsAnErrorNotAShortBody(t *testing.T) {
	dir := t.TempDir()
	p := writeFile(t, dir, "f", bytes.Repeat([]byte("z"), 100))
	fd, err := syscall.Open(p, openFlags, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Close(fd)
	if body, err := readBody(fd, 100); err != nil || len(body) != 100 {
		t.Fatalf("readBody(100) = %d bytes, %v", len(body), err)
	}
	// The file as fstat saw it was 300 bytes; 100 are left.
	if body, err := readBody(fd, 300); err != io.ErrUnexpectedEOF || body != nil {
		t.Fatalf("readBody past a truncation = %d bytes, %v; want nil, io.ErrUnexpectedEOF", len(body), err)
	}
	// io.ReaderAt's contract on the same condition: the count that was
	// there, and io.EOF.
	e := &Entry{fd: fd, key: "/f"}
	buf := make([]byte, 64)
	if n, err := e.ReadAt(buf, 80); n != 20 || err != io.EOF {
		t.Fatalf("ReadAt across the end = %d, %v; want 20, io.EOF", n, err)
	}
	if n, err := e.ReadAt(buf, 0); n != 64 || err != nil {
		t.Fatalf("ReadAt inside the file = %d, %v", n, err)
	}
}

// What is not a regular file is a 404 however open(2) and fstat(2) put
// it; what is an I/O failure is not. A FIFO is the case that matters:
// without O_NONBLOCK its open(2) parks the caller until a writer shows
// up — on the reactor, the whole event loop.
func TestSpecialFilesClassify(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "a.txt", []byte("a"))
	if err := syscall.Mkfifo(filepath.Join(dir, "fifo"), 0o644); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("unix", filepath.Join(dir, "sock"))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := os.Symlink("loop", filepath.Join(dir, "loop")); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink("a.txt", filepath.Join(dir, "link")); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/fifo", "/sock"} {
		e, err := r.Get(p)
		if err == nil {
			e.Release()
			t.Fatalf("Get(%q) served a non-regular file", p)
		}
		if !NotFound(err) {
			t.Fatalf("Get(%q) = %v, not classified NotFound", p, err)
		}
	}
	if st := r.Stats(); st.Errors != 0 {
		t.Fatalf("stats = %+v: a 404 counted as an error", st)
	}
	// A symlink that resolves is followed, as ever.
	if e, err := r.Get("/link"); err != nil || string(e.Body()) != "a" {
		t.Fatalf("Get through a symlink: %v", err)
	} else {
		e.Release()
	}
	_, err = r.Get("/loop")
	var pe *os.PathError
	switch {
	case !errors.Is(err, syscall.ELOOP):
		t.Fatalf("Get of a symlink loop = %v, want ELOOP", err)
	case !errors.As(err, &pe) || pe.Op != "open":
		t.Fatalf("Get of a symlink loop = %#v, want the *os.PathError os.Open returns", err)
	case NotFound(err) || FDExhausted(err):
		t.Fatalf("ELOOP classified NotFound=%v FDExhausted=%v, want neither", NotFound(err), FDExhausted(err))
	}
	if st := r.Stats(); st.Errors != 1 {
		t.Fatalf("stats = %+v, want one error", st)
	}
	for _, errno := range []syscall.Errno{syscall.EMFILE, syscall.ENFILE} {
		err := &os.PathError{Op: "open", Path: "x", Err: errno}
		if !FDExhausted(err) || NotFound(err) {
			t.Fatalf("%v classified FDExhausted=%v NotFound=%v", errno, FDExhausted(err), NotFound(err))
		}
	}
}
