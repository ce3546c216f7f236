//go:build linux

package repro

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mtserver"
	"repro/internal/proxy"
)

// TestHalfClosedClientGetsReply: a client that sends its requests and
// then shuts down its sending side (shutdown(SHUT_WR) — what `curl`
// does on a piped body, what any HTTP/1.0-style client does) is still
// owed every reply it asked for. The FIN usually reaches the server in
// the same wake as the request, or while a large reply is blocked on
// the socket buffer; either way the server must finish the queue and
// only then close. Every serving path is held to the same contract:
// the event-driven core under fan-out and at 1 and 4 shards, the
// thread pool, and the core behind the proxy tier.
func TestHalfClosedClientGetsReply(t *testing.T) {
	if testing.Short() {
		t.Skip("integration-scale")
	}
	// large is far past what loopback socket buffers hold, so its reply
	// is still queued in the server when the FIN arrives.
	store := core.MapStore{"/small": patternBody(1 << 10), "/large": patternBody(24 << 20)}

	startCore := func(t *testing.T, mutate func(*core.Config)) string {
		cfg := core.DefaultConfig(store)
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
	targets := []struct {
		name  string
		start func(t *testing.T) string
	}{
		{"core/fanout", func(t *testing.T) string {
			return startCore(t, func(c *core.Config) { c.Shards = 0; c.Workers = 2 })
		}},
		{"core/shards=1", func(t *testing.T) string {
			return startCore(t, func(c *core.Config) { c.Shards = 1 })
		}},
		{"core/shards=4", func(t *testing.T) string {
			return startCore(t, func(c *core.Config) { c.Shards = 4 })
		}},
		{"mtserver", func(t *testing.T) string {
			cfg := mtserver.DefaultConfig(store)
			cfg.Threads = 4
			srv, err := mtserver.NewServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(srv.Stop)
			return srv.Addr()
		}},
		{"nioproxy", func(t *testing.T) string {
			backend := startCore(t, func(c *core.Config) { c.Shards = 1 })
			return startProxyTier(t, 1, []proxy.BackendConfig{{Addr: backend, Name: "b0"}}, nil).Addr()
		}},
	}

	// exchange sends the requests in one write, half-closes, and
	// requires one exact 200 per request followed by a clean EOF.
	exchange := func(t *testing.T, addr string, paths ...string) {
		t.Helper()
		c, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetDeadline(time.Now().Add(20 * time.Second))
		var wire bytes.Buffer
		for _, p := range paths {
			fmt.Fprintf(&wire, "GET %s HTTP/1.1\r\nHost: sut\r\n\r\n", p)
		}
		if _, err := c.Write(wire.Bytes()); err != nil {
			t.Fatal(err)
		}
		if err := c.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(c)
		for i, p := range paths {
			resp, err := http.ReadResponse(br, nil)
			if err != nil {
				t.Fatalf("reply %d of %d (%s) after half-close: %v", i+1, len(paths), p, err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("reply %d of %d (%s): body cut short at %d of %d bytes: %v",
					i+1, len(paths), p, len(got), len(store[p]), err)
			}
			if resp.StatusCode != 200 || !bytes.Equal(got, store[p]) {
				t.Fatalf("reply %d of %d (%s): status %d, %d body bytes; want 200 and the exact %d",
					i+1, len(paths), p, resp.StatusCode, len(got), len(store[p]))
			}
		}
		if rest, err := io.ReadAll(br); err != nil || len(rest) != 0 {
			t.Fatalf("after the last reply: %d stray bytes, err %v; want a clean close", len(rest), err)
		}
	}

	for _, tg := range targets {
		t.Run(tg.name, func(t *testing.T) {
			addr := tg.start(t)
			// Whether the FIN lands in the request's wake is a race the
			// client cannot steer, so the small case repeats.
			for i := 0; i < 25; i++ {
				exchange(t, addr, "/small")
			}
			exchange(t, addr, "/small", "/small", "/small")
			exchange(t, addr, "/large")
			exchange(t, addr, "/small", "/large")
		})
	}
}
