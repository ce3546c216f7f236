//go:build linux

package docroot

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/surge"
)

func writeFile(t *testing.T, dir, name string, body []byte) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, body, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestGetServesFileWithValidators(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "index.html", []byte("<html>hi</html>"))
	r, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/index.html", "/", "/./index.html", "/x/../index.html"} {
		e, err := r.Get(path)
		if err != nil {
			t.Fatalf("Get(%q): %v", path, err)
		}
		if e.ContentType != "text/html" {
			t.Fatalf("Get(%q) ContentType = %q", path, e.ContentType)
		}
		if e.Size != 15 || string(e.Body()) != "<html>hi</html>" {
			t.Fatalf("Get(%q) body = %q (size %d)", path, e.Body(), e.Size)
		}
		if e.ETag == "" || e.ETag[0] != '"' || e.LastModified == "" {
			t.Fatalf("Get(%q) validators = %q / %q", path, e.ETag, e.LastModified)
		}
		e.Release()
	}
}

func TestGetRejectsEscapesAndSpecials(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "a.txt", []byte("a"))
	// A sibling file outside the root that "/../" would reach.
	outside := filepath.Join(filepath.Dir(dir), "secret-"+filepath.Base(dir))
	if err := os.WriteFile(outside, []byte("s"), 0o644); err != nil {
		t.Fatal(err)
	}
	defer os.Remove(outside)

	r, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{
		"", "relative", "/missing.txt", "/a.txt/deeper",
		"/../" + filepath.Base(outside), "/\x00", "/subdir-not-there/",
	} {
		e, err := r.Get(path)
		if err == nil {
			e.Release()
			t.Fatalf("Get(%q) unexpectedly succeeded", path)
		}
		if !NotFound(err) {
			t.Fatalf("Get(%q) error %v not classified NotFound", path, err)
		}
	}
	// A directory itself is not servable (no index.html inside).
	if err := os.MkdirAll(filepath.Join(dir, "d"), 0o755); err != nil {
		t.Fatal(err)
	}
	if e, err := r.Get("/d"); err == nil {
		e.Release()
		t.Fatal("Get of a bare directory succeeded")
	} else if !NotFound(err) {
		t.Fatalf("directory error %v not NotFound", err)
	}
}

func TestCacheHitMissEviction(t *testing.T) {
	dir := t.TempDir()
	bodyA := bytes.Repeat([]byte("a"), 8<<10)
	bodyB := bytes.Repeat([]byte("b"), 8<<10)
	bodyC := bytes.Repeat([]byte("c"), 8<<10)
	writeFile(t, dir, "a.bin", bodyA)
	writeFile(t, dir, "b.bin", bodyB)
	writeFile(t, dir, "c.bin", bodyC)

	// Budget fits two 8 KiB bodies (+ overhead) but not three.
	r, err := New(Config{Dir: dir, CacheBytes: 2 * (8<<10 + entryOverhead), MemLimit: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	get := func(p string, want []byte) *Entry {
		t.Helper()
		e, err := r.Get(p)
		if err != nil {
			t.Fatalf("Get(%q): %v", p, err)
		}
		if !bytes.Equal(e.Body(), want) {
			t.Fatalf("Get(%q) wrong body", p)
		}
		return e
	}
	get("/a.bin", bodyA).Release()
	get("/b.bin", bodyB).Release()
	get("/a.bin", bodyA).Release() // hit; A is now most recent
	st := r.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Evictions != 0 || st.CachedEntries != 2 {
		t.Fatalf("stats = %+v", st)
	}
	get("/c.bin", bodyC).Release() // evicts B (LRU tail)
	st = r.Stats()
	if st.Evictions != 1 || st.CachedEntries != 2 {
		t.Fatalf("after eviction: %+v", st)
	}
	get("/a.bin", bodyA).Release() // still cached
	get("/b.bin", bodyB).Release() // must re-open and still serve correctly
	st = r.Stats()
	if st.Hits != 2 || st.Opens != 4 {
		t.Fatalf("final stats = %+v", st)
	}
}

func TestEvictionKeepsInFlightEntryUsable(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "big.bin", bytes.Repeat([]byte("x"), 32<<10))
	writeFile(t, dir, "other.bin", bytes.Repeat([]byte("y"), 32<<10))
	// MemLimit 0: fd-only entries; budget holds exactly one.
	r, err := New(Config{Dir: dir, CacheBytes: entryOverhead, MemLimit: 0})
	if err != nil {
		t.Fatal(err)
	}
	e, err := r.Get("/big.bin")
	if err != nil {
		t.Fatal(err)
	}
	if e.Body() != nil {
		t.Fatal("MemLimit 0 still cached a body")
	}
	// Force big.bin out of the cache while we still hold it.
	e2, err := r.Get("/other.bin")
	if err != nil {
		t.Fatal(err)
	}
	e2.Release()
	if r.Stats().Evictions != 1 {
		t.Fatalf("stats = %+v", r.Stats())
	}
	// The evicted entry's fd must still pread correctly.
	buf := make([]byte, 16)
	if _, err := e.ReadAt(buf, 16<<10-8); err != nil {
		t.Fatalf("ReadAt after eviction: %v", err)
	}
	if !bytes.Equal(buf, bytes.Repeat([]byte("x"), 16)) {
		t.Fatalf("ReadAt after eviction read %q", buf)
	}
	e.Release()
}

func TestCacheDisabled(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "a.txt", []byte("hello"))
	r, err := New(Config{Dir: dir, CacheBytes: 0, MemLimit: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		e, err := r.Get("/a.txt")
		if err != nil {
			t.Fatal(err)
		}
		if string(e.Body()) != "hello" {
			t.Fatalf("body = %q", e.Body())
		}
		e.Release()
	}
	st := r.Stats()
	if st.Hits != 0 || st.Opens != 3 || st.CachedEntries != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSendfileToDeliversAndMatches(t *testing.T) {
	dir := t.TempDir()
	body := bytes.Repeat([]byte{0xAB, 0xCD, 0x01}, 700*1024) // ~2 MiB, > one chunk
	writeFile(t, dir, "blob.bin", body)
	r, err := New(Config{Dir: dir, CacheBytes: 1 << 20, MemLimit: 0})
	if err != nil {
		t.Fatal(err)
	}
	e, err := r.Get("/blob.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer e.Release()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan []byte, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			got <- nil
			return
		}
		defer c.Close()
		var sink bytes.Buffer
		buf := make([]byte, 64<<10)
		for {
			n, err := c.Read(buf)
			sink.Write(buf[:n])
			if err != nil {
				break
			}
		}
		got <- sink.Bytes()
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	n, fellBack, err := SendfileTo(conn, e)
	conn.Close()
	if err != nil || n != e.Size || fellBack {
		t.Fatalf("SendfileTo = (%d, %v, %v), want (%d, false, nil)", n, fellBack, err, e.Size)
	}
	received := <-got
	if !bytes.Equal(received, body) {
		t.Fatalf("sendfile delivered %d bytes, want %d (content mismatch)", len(received), len(body))
	}
}

func TestCopyToMatchesSendfile(t *testing.T) {
	dir := t.TempDir()
	body := bytes.Repeat([]byte("0123456789abcdef"), 10_001) // not buffer-aligned
	writeFile(t, dir, "blob.bin", body)
	r, err := New(Config{Dir: dir, CacheBytes: 1 << 20, MemLimit: 0})
	if err != nil {
		t.Fatal(err)
	}
	e, err := r.Get("/blob.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer e.Release()
	var sink bytes.Buffer
	n, err := copyTo(&sink, e)
	if err != nil || n != e.Size {
		t.Fatalf("copyTo = (%d, %v), want (%d, nil)", n, err, e.Size)
	}
	if !bytes.Equal(sink.Bytes(), body) {
		t.Fatal("copyTo content mismatch")
	}
}

func TestMaterializeSurgeMatchesSurgeStore(t *testing.T) {
	cfg := surge.DefaultConfig()
	cfg.NumObjects = 16
	cfg.MaxObjectBytes = 64 << 10
	set, err := surge.BuildObjectSet(cfg, dist.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := MaterializeSurge(dir, set, cfg.MaxObjectBytes, 11); err != nil {
		t.Fatal(err)
	}
	blob := SurgeBlob(cfg.MaxObjectBytes, 11)
	r, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var firstETag string
	for i := 0; i < set.Len(); i++ {
		o := set.Object(i)
		e, err := r.Get(o.Path())
		if err != nil {
			t.Fatalf("Get(%s): %v", o.Path(), err)
		}
		if e.Size != o.Size {
			t.Fatalf("object %d size %d, want %d", i, e.Size, o.Size)
		}
		if e.Body() != nil && !bytes.Equal(e.Body(), blob[:o.Size]) {
			t.Fatalf("object %d content mismatch", i)
		}
		if !e.ModTime.Equal(surgeEpoch) {
			t.Fatalf("object %d mtime %v, want fixed epoch", i, e.ModTime)
		}
		if i == 0 {
			firstETag = e.ETag
		}
		e.Release()
	}
	// Re-materializing elsewhere yields identical validators.
	dir2 := t.TempDir()
	if err := MaterializeSurge(dir2, set, cfg.MaxObjectBytes, 11); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(dir2, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	e, err := r2.Get(set.Object(0).Path())
	if err != nil {
		t.Fatal(err)
	}
	if e.ETag != firstETag {
		t.Fatalf("ETag not deterministic across materializations: %q vs %q", e.ETag, firstETag)
	}
	e.Release()
}

func TestTypeByExt(t *testing.T) {
	cases := map[string]string{
		"/index.html":    "text/html",
		"/a/b/style.CSS": "text/css",
		"/app.js":        "text/javascript",
		"/data.json":     "application/json",
		"/pic.jpeg":      "image/jpeg",
		"/obj/123":       "application/octet-stream",
		"/no.ext/file":   "application/octet-stream",
		"/archive.gz":    "application/gzip",
	}
	for p, want := range cases {
		if got := TypeByExt(p); got != want {
			t.Errorf("TypeByExt(%q) = %q, want %q", p, got, want)
		}
	}
}

func TestConcurrentGetRelease(t *testing.T) {
	dir := t.TempDir()
	for _, n := range []string{"a", "b", "c", "d"} {
		writeFile(t, dir, n+".bin", bytes.Repeat([]byte(n), 4<<10))
	}
	r, err := New(Config{Dir: dir, CacheBytes: 2 * (4<<10 + entryOverhead), MemLimit: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		g := g
		go func() {
			names := []string{"a", "b", "c", "d"}
			for i := 0; i < 200; i++ {
				name := names[(i+g)%4]
				e, err := r.Get("/" + name + ".bin")
				if err != nil {
					done <- err
					return
				}
				if e.Size != 4<<10 {
					done <- err
					return
				}
				if e.Body() != nil && e.Body()[0] != name[0] {
					done <- err
					return
				}
				time.Sleep(time.Microsecond)
				e.Release()
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
