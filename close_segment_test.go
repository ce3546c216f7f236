//go:build linux

package repro

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/docroot"
	"repro/internal/proxy"
)

// segsIn reads tcpi_segs_in, the count of segments the socket has
// received, from the kernel's struct tcp_info. syscall.TCPInfo stops at
// tcpi_total_retrans (byte 104); segs_in is the u32 at byte 140 (Linux
// 4.2 and later). ok is false when the kernel returned a shorter struct.
func segsIn(t *testing.T, c net.Conn) (n uint32, ok bool) {
	t.Helper()
	rc, err := c.(*net.TCPConn).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	const segsInOff = 140
	var buf [256]byte
	size := uint32(len(buf))
	var errno syscall.Errno
	if err := rc.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall6(syscall.SYS_GETSOCKOPT, fd, syscall.IPPROTO_TCP, syscall.TCP_INFO,
			uintptr(unsafe.Pointer(&buf[0])), uintptr(unsafe.Pointer(&size)), 0)
	}); err != nil {
		t.Fatal(err)
	}
	if errno != 0 || size < segsInOff+4 {
		return 0, false
	}
	return *(*uint32)(unsafe.Pointer(&buf[segsInOff])), true
}

// closeExchange is one request on a fresh connection, read to the server's
// EOF. With closeHeader the request says Connection: close and the
// server ends the connection; without it the client half-closes once it
// has the reply. It returns the status, the body, how many bytes followed
// the reply, and the client socket's inbound segment count at EOF.
func closeExchange(t *testing.T, addr, path string, closeHeader bool) (status int, body []byte, stray int, segs uint32, segsOK bool) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	conn := "keep-alive"
	if closeHeader {
		conn = "close"
	}
	if _, err := fmt.Fprintf(c, "GET %s HTTP/1.1\r\nHost: x\r\nConnection: %s\r\n\r\n", path, conn); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(c)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatalf("%s (close=%v): %v", path, closeHeader, err)
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("%s (close=%v): body: %v", path, closeHeader, err)
	}
	if !closeHeader {
		if err := c.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
	}
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatalf("%s (close=%v): no clean EOF after the reply: %v", path, closeHeader, err)
	}
	segs, segsOK = segsIn(t, c)
	return resp.StatusCode, body, len(rest), segs, segsOK
}

// TestCloseRidesTheLastSegment: a reply to a Connection: close request
// leaves with its FIN on board — the last segment is written with
// MSG_MORE and close(2) pushes it. The client must get the same bytes as
// ever, followed by EOF, and one inbound segment fewer than the same
// request costs when the client does the closing. On loopback (kernel
// 6.18) the counts are 3 against 4: SYN-ACK, the ACK of the request (a
// connection starts in quick-ack mode) and reply+FIN in one segment,
// against reply and FIN in two. Before the cork went through the close
// both exchanges read 4. Held to it: core on its three accept paths, and
// the proxy's downstream side in front of core. Not skipped under
// -short, so `make invariants` runs flush's no-orphan-cork assertion
// through every case.
func TestCloseRidesTheLastSegment(t *testing.T) {
	big := patternBody(5000)
	store := core.MapStore{"/body": big, "/empty": {}}
	file := bytes.Repeat([]byte("cached docroot body "), 200)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "file.txt"), file, 0o644); err != nil {
		t.Fatal(err)
	}
	startCore := func(t *testing.T, cfg core.Config, mutate func(*core.Config)) string {
		mutate(&cfg)
		srv, err := core.NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Stop)
		return srv.Addr()
	}
	direct := func(mutate func(*core.Config)) func(*testing.T, core.Config) string {
		return func(t *testing.T, cfg core.Config) string { return startCore(t, cfg, mutate) }
	}
	targets := []struct {
		name  string
		start func(t *testing.T, cfg core.Config) string
	}{
		{"core/shards=1", direct(func(c *core.Config) { c.Shards = 1 })},
		{"core/shards=4", direct(func(c *core.Config) { c.Shards = 4 })},
		{"core/fanout", direct(func(c *core.Config) { c.Shards = 0; c.Workers = 2 })},
		{"nioproxy", func(t *testing.T, cfg core.Config) string {
			backend := startCore(t, cfg, func(c *core.Config) { c.Shards = 1 })
			return startProxyTier(t, 1, []proxy.BackendConfig{{Addr: backend, Name: "b0"}}, nil).Addr()
		}},
	}
	for _, tg := range targets {
		t.Run(tg.name, func(t *testing.T) {
			storeAddr := tg.start(t, core.DefaultConfig(store))
			root, err := docroot.New(docroot.Config{Dir: dir, CacheBytes: 1 << 20, MemLimit: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			dcfg := core.DefaultConfig(nil)
			dcfg.Docroot = root
			docAddr := tg.start(t, dcfg)
			// Warm the cache: the case below is a hit served from memory.
			if st, _, _, _, _ := closeExchange(t, docAddr, "/file.txt", false); st != 200 {
				t.Fatalf("warming the docroot cache: status %d", st)
			}
			cases := []struct {
				name, addr, path string
				status           int
				body             []byte
			}{
				{"store body", storeAddr, "/body", 200, big},
				{"empty body", storeAddr, "/empty", 200, nil},
				{"404", storeAddr, "/nope", 404, nil},
				{"docroot cached body", docAddr, "/file.txt", 200, file},
			}
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					var segs [2]uint32
					for i, closeHeader := range []bool{false, true} {
						st, body, stray, n, ok := closeExchange(t, tc.addr, tc.path, closeHeader)
						if st != tc.status || !bytes.Equal(body, tc.body) {
							t.Fatalf("close=%v: status %d with %d body bytes, want %d with %d",
								closeHeader, st, len(body), tc.status, len(tc.body))
						}
						if stray != 0 {
							t.Fatalf("close=%v: %d bytes after the reply", closeHeader, stray)
						}
						if !ok {
							t.Skip("this kernel's tcp_info has no tcpi_segs_in")
						}
						segs[i] = n
					}
					// "Fewer", not "one fewer": a loaded host can split the
					// client-closes exchange further (a delayed ACK of the
					// client's FIN ahead of the server's), never merge it.
					if segs[1] >= segs[0] {
						t.Errorf("the server's close cost %d inbound segments, the client's %d; want fewer (reply and FIN in one segment)",
							segs[1], segs[0])
					}
				})
			}
		})
	}
}

// TestProxyLocalErrorsPushBeforeTheyClose: the proxy corks only a clean
// close. Its own error responses end connections that may have input
// unread behind the failed request — close(2) then resets and purges
// what is unsent — so they must be pushed first: the client gets the
// whole response whatever follows it. (core's unsafe closes are held to
// the same in internal/core/closecork_test.go.)
func TestProxyLocalErrorsPushBeforeTheyClose(t *testing.T) {
	backend, err := core.NewServer(core.DefaultConfig(core.MapStore{"/a": []byte("alpha")}))
	if err != nil {
		t.Fatal(err)
	}
	if err := backend.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(backend.Stop)
	tier := startProxyTier(t, 1, []proxy.BackendConfig{{Addr: backend.Addr(), Name: "b0"}},
		func(c *proxy.Config) { c.ReadBuf = 256 })
	padding := strings.Repeat("x", 4096)
	for _, tc := range []struct {
		name, wire string
		status     int
	}{
		{"400 with trailing garbage", "NONSENSE\r\n\r\n" + padding, 400},
		{"501 for a request body, more behind it", "POST /a HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\nConnection: close\r\n\r\nhello" + padding, 501},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := net.DialTimeout("tcp", tier.Addr(), 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.SetDeadline(time.Now().Add(10 * time.Second))
			io.WriteString(c, tc.wire)
			raw, _ := io.ReadAll(c) // a reset after the response is not judged
			resp, err := http.ReadResponse(bufio.NewReader(bytes.NewReader(raw)), nil)
			if err != nil {
				t.Fatalf("the client got %d bytes, not a response (%v): %q", len(raw), err, raw)
			}
			if resp.StatusCode != tc.status || resp.Header.Get("Via") == "" {
				t.Errorf("status %d, Via %q; want the proxy's own %d", resp.StatusCode, resp.Header.Get("Via"), tc.status)
			}
		})
	}
}
