//go:build linux

package repro

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/proxy"
)

// TestAcceptBurstOneConnectionPerWake: the three accept paths take one
// connection per readiness event and rely on the level-triggered
// listener to report the rest. A burst far deeper than one wake — 512
// simultaneous dials against ONE loop that admits 64, none sending its
// request before all have connected, so the ceiling is certain to be
// hit — must still be worked off to the last connection: each ends in a
// whole 200 or a whole 503 (plain from core, Via-stamped from the
// proxy), the server's books balance (accepted = replies + shed, and
// both match what the clients saw), and no connection is left open.
func TestAcceptBurstOneConnectionPerWake(t *testing.T) {
	const (
		dials    = 512
		maxConns = 64
	)
	body := patternBody(3000)
	store := core.MapStore{"/a": body}
	startCore := func(t *testing.T, mutate func(*core.Config)) *core.Server {
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
		return srv
	}
	type books struct{ accepted, replies, shed, open int64 }
	coreBooks := func(srv *core.Server) func() books {
		return func() books {
			st := srv.Stats()
			return books{st.Accepted, st.Replies, st.Shed, st.ConnsOpen}
		}
	}
	targets := []struct {
		name  string
		via   bool // sheds carry the proxy's Via token
		start func(t *testing.T) (addr string, read func() books)
	}{
		{"core/shards=1", false, func(t *testing.T) (string, func() books) {
			srv := startCore(t, func(c *core.Config) { c.Shards = 1; c.MaxConns = maxConns })
			return srv.Addr(), coreBooks(srv)
		}},
		{"core/fanout", false, func(t *testing.T) (string, func() books) {
			srv := startCore(t, func(c *core.Config) { c.Shards = 0; c.Workers = 1; c.MaxConns = maxConns })
			return srv.Addr(), coreBooks(srv)
		}},
		{"nioproxy", true, func(t *testing.T) (string, func() books) {
			backend := startCore(t, func(c *core.Config) { c.Shards = 1 })
			tier := startProxyTier(t, 1, []proxy.BackendConfig{{Addr: backend.Addr(), Name: "b0"}},
				func(c *proxy.Config) { c.MaxConns = maxConns })
			return tier.Addr(), func() books {
				st := tier.Stats()
				if st.BadGateway != 0 || st.NoBackend != 0 || st.Relayed503 != 0 {
					t.Errorf("the tier answered with errors of its own: %+v", st)
				}
				return books{st.Accepted, st.Replies, st.Shed, st.ConnsOpen}
			}
		}},
	}
	for _, tg := range targets {
		t.Run(tg.name, func(t *testing.T) {
			addr, read := tg.start(t)
			var (
				wg       sync.WaitGroup
				dialed   sync.WaitGroup
				mu       sync.Mutex
				ok, shed int64
			)
			gate := make(chan struct{})
			dialed.Add(dials)
			for i := 0; i < dials; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-gate
					c, err := net.DialTimeout("tcp", addr, 10*time.Second)
					dialed.Done()
					dialed.Wait()
					if err != nil {
						t.Errorf("dial: %v", err)
						return
					}
					defer c.Close()
					c.SetDeadline(time.Now().Add(20 * time.Second))
					// A shed connection may already be closed: the write's
					// error is the 503's business, read below.
					io.WriteString(c, "GET /a HTTP/1.1\r\nHost: sut\r\nConnection: close\r\n\r\n")
					raw, _ := io.ReadAll(c)
					resp, err := http.ReadResponse(bufio.NewReader(bytes.NewReader(raw)), nil)
					if err != nil {
						t.Errorf("%d bytes, not a reply (%v): %q", len(raw), err, raw)
						return
					}
					got, err := io.ReadAll(resp.Body)
					mu.Lock()
					defer mu.Unlock()
					switch {
					case err == nil && resp.StatusCode == 200 && bytes.Equal(got, body):
						ok++
					case err == nil && resp.StatusCode == 503 && (resp.Header.Get("Via") != "") == tg.via:
						shed++
					default:
						t.Errorf("status %d, %d body bytes, Via %q, err %v", resp.StatusCode, len(got), resp.Header.Get("Via"), err)
					}
				}()
			}
			close(gate)
			wg.Wait()
			waitUntil(t, 10*time.Second, func() bool { return read().open == 0 }, "every connection to close")
			b := read()
			if b.accepted != dials || b.accepted != b.replies+b.shed {
				t.Errorf("accepted %d, replies %d, shed %d: want %d accepted = replies + shed", b.accepted, b.replies, b.shed, dials)
			}
			if ok != b.replies || shed != b.shed {
				t.Errorf("the clients saw %d replies and %d sheds, the server counts %d and %d", ok, shed, b.replies, b.shed)
			}
			if ok == 0 || shed == 0 {
				t.Errorf("vacuous: %d connections admitted, %d shed", ok, shed)
			}
		})
	}
}
