//go:build linux

package repro

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/docroot"
	"repro/internal/mtserver"
)

// docrootTarget is one live server over its own docroot.Root.
type docrootTarget struct {
	name string
	addr string
	root *docroot.Root
	// notFound reads the server's 404 counter; nil where the server has
	// none (mtserver).
	notFound func() int64
}

// startDocrootTargets serves dir from the event-driven core — one shard,
// so a parked event loop is a dead server — and from the thread pool.
func startDocrootTargets(t *testing.T, dir string) []docrootTarget {
	t.Helper()
	mkRoot := func() *docroot.Root {
		root, err := docroot.Open(dir, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		return root
	}
	ccfg := core.DefaultConfig(nil)
	ccfg.Shards = 1
	ccfg.Docroot = mkRoot()
	nio, err := core.NewServer(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := nio.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nio.Stop)

	mcfg := mtserver.DefaultConfig(nil)
	mcfg.Threads = 2
	mcfg.Docroot = mkRoot()
	mt, err := mtserver.NewServer(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := mt.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mt.Stop)
	return []docrootTarget{
		{"core/shards=1", nio.Addr(), ccfg.Docroot, func() int64 { return nio.Stats().NotFound }},
		{"mtserver", mt.Addr(), mcfg.Docroot, nil},
	}
}

// keepAliveClient is one persistent raw connection; every exchange runs
// under a deadline, so a server that stops answering fails the test
// instead of hanging it.
type keepAliveClient struct {
	t  *testing.T
	c  net.Conn
	br *bufio.Reader
}

func dialKeepAlive(t *testing.T, addr string) *keepAliveClient {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &keepAliveClient{t: t, c: c, br: bufio.NewReader(c)}
}

// wireReply is what the error classes differ in.
type wireReply struct {
	status     int
	close      bool
	retryAfter string
	body       string
}

func (k *keepAliveClient) get(path string) wireReply {
	k.t.Helper()
	k.c.SetDeadline(time.Now().Add(3 * time.Second))
	if _, err := io.WriteString(k.c, "GET "+path+" HTTP/1.1\r\nHost: sut\r\n\r\n"); err != nil {
		k.t.Fatalf("GET %s: %v", path, err)
	}
	resp, err := http.ReadResponse(k.br, nil)
	if err != nil {
		k.t.Fatalf("GET %s: no reply: %v", path, err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		k.t.Fatalf("GET %s: body: %v", path, err)
	}
	return wireReply{resp.StatusCode, resp.Close, resp.Header.Get("Retry-After"), string(body)}
}

// wantEOF requires that the server has closed the connection.
func (k *keepAliveClient) wantEOF(after string) {
	k.t.Helper()
	k.c.SetDeadline(time.Now().Add(3 * time.Second))
	if b, err := k.br.ReadByte(); err != io.EOF {
		k.t.Fatalf("after %s: read %q, %v; want the connection closed", after, b, err)
	}
}

// TestDocrootErrorClassesParity: a Root.Get failure is one of three
// things, and both servers must tell them apart identically. No servable
// file (missing, a directory, a FIFO) is a 404 on a connection that
// stays up; an I/O failure (here ELOOP from a symlink loop — the suite
// runs as root, so a mode-000 file would just open) is a 500 that
// closes the connection, counted in docroot.Stats.Errors and not in the
// server's 404 counter.
//
// The FIFO is also the wedge test. At the parent commit docroot opened
// files with os.Open, and open(2) of a FIFO without O_NONBLOCK sleeps
// until a writer opens the other end: core's event loop — its only
// thread, at one shard — parked inside the handler for good, this
// request and every other connection on the shard timing out, and
// mtserver lost one pool thread per such request until none were left.
// (Both also answered the symlink loop with a 404.) Every exchange
// below runs under a 3 s deadline, and a second connection is served
// after the FIFO request to show the loop is still turning.
func TestDocrootErrorClassesParity(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a.txt"), []byte("alpha"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "d"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Mkfifo(filepath.Join(dir, "fifo"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink("loop", filepath.Join(dir, "loop")); err != nil {
		t.Fatal(err)
	}
	script := []string{"/a.txt", "/fifo", "/a.txt", "/missing", "/d", "/loop"}
	var transcripts [][]wireReply
	for _, tg := range startDocrootTargets(t, dir) {
		k := dialKeepAlive(t, tg.addr)
		var got []wireReply
		for _, path := range script {
			got = append(got, k.get(path))
			if path == "/fifo" {
				// Not just this connection: the server still serves others.
				if r := dialKeepAlive(t, tg.addr).get("/a.txt"); r.status != 200 {
					t.Fatalf("%s: a second client after the FIFO request got %d", tg.name, r.status)
				}
			}
		}
		k.wantEOF("the 500")
		want := []wireReply{
			{200, false, "", "alpha"},
			{404, false, "", ""},
			{200, false, "", "alpha"},
			{404, false, "", ""},
			{404, false, "", ""},
			{500, true, "", ""},
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: GET %s = %+v, want %+v", tg.name, script[i], got[i], want[i])
			}
		}
		if st := tg.root.Stats(); st.Errors != 1 {
			t.Errorf("%s: docroot stats %+v, want exactly one error (the symlink loop)", tg.name, st)
		}
		if tg.notFound != nil {
			if n := tg.notFound(); n != 3 {
				t.Errorf("%s: server counted %d 404s, want 3 (fifo, missing, directory — not the 500)", tg.name, n)
			}
		}
		transcripts = append(transcripts, got)
	}
	for i := range script {
		if transcripts[0][i] != transcripts[1][i] {
			t.Errorf("GET %s: core answered %+v, mtserver %+v", script[i], transcripts[0][i], transcripts[1][i])
		}
	}
}

// TestDocrootOutOfDescriptorsIs503: when a miss's open(2) fails EMFILE
// the file is not missing — the process is out of descriptors. Both
// servers must give cached descriptors back (ShedFDs) and answer 503
// with Retry-After on a connection that stays usable, and serve the same
// path once there is room. (The parent answered 404, on which a client
// gives up for good.) The exhaustion is real: RLIMIT_NOFILE is lowered
// and the table filled, for as long as each request takes.
func TestDocrootOutOfDescriptorsIs503(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"warm.txt", "cold.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(name), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	targets := startDocrootTargets(t, dir)
	clients := make([]*keepAliveClient, len(targets))
	for i, tg := range targets {
		clients[i] = dialKeepAlive(t, tg.addr)
		// Accepted, adopted, and one entry in the cache to give back.
		if r := clients[i].get("/warm.txt"); r.status != 200 {
			t.Fatalf("%s: warm-up GET = %d", tg.name, r.status)
		}
	}

	for i, tg := range targets {
		// Per server: both live in this process, and the first one's
		// ShedFDs hands the second a free slot.
		release := exhaustDescriptors(t)
		reply := clients[i].get("/cold.txt")
		release()
		if want := (wireReply{503, false, "1", ""}); reply != want {
			t.Errorf("%s: GET with no descriptor left = %+v, want %+v", tg.name, reply, want)
		}
		st := tg.root.Stats()
		if st.Errors != 1 || st.PressureEvictions != 1 {
			t.Errorf("%s: docroot stats %+v, want one error and the warm entry shed", tg.name, st)
		}
		if tg.notFound != nil && tg.notFound() != 0 {
			t.Errorf("%s: an EMFILE was counted as a 404", tg.name)
		}
		if r := clients[i].get("/cold.txt"); r.status != 200 || r.body != "cold.txt" {
			t.Errorf("%s: the same connection, descriptors back: %+v, want 200", tg.name, r)
		}
	}
}

// exhaustDescriptors fills the process's descriptor table — under a
// lowered RLIMIT_NOFILE, so that "full" is a few hundred opens — and
// returns the function that empties it again and restores the limit.
func exhaustDescriptors(t *testing.T) (release func()) {
	t.Helper()
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &old); err != nil {
		t.Fatal(err)
	}
	low := old
	if low.Cur > 512 {
		low.Cur = 512
	}
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &low); err != nil {
		t.Fatal(err)
	}
	var fillers []int
	released := false
	release = func() {
		if released {
			return
		}
		released = true
		for _, fd := range fillers {
			syscall.Close(fd)
		}
		if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &old); err != nil {
			t.Error(err)
		}
	}
	t.Cleanup(release) // a t.Fatal in between must not starve the rest of the suite
	for {
		fd, err := syscall.Open("/dev/null", syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
		if err == syscall.EINTR {
			continue
		}
		if err == syscall.EMFILE {
			return release
		}
		if err != nil {
			release()
			t.Fatalf("filling the descriptor table: %v", err)
		}
		fillers = append(fillers, fd)
	}
}
