//go:build linux

package repro

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Model-based conformance suite for the connection lifecycle. The
// server's observable behavior per connection is specified as an
// explicit state machine over the obs event vocabulary — the modeled
// grammar of accept → read → parse → respond → (keepalive | close),
// with shed as the zero-conn refusal outside the lifecycle — and the
// trace ring is required to emit exactly sequences that machine
// accepts, for every connection, on every shard configuration
// (legacy fan-out, 1 reuseport shard, 4 reuseport shards).
//
// The model is deliberately strict: it encodes not just which events
// exist but which may follow which. A shard that reordered a parse
// before its header read, double-closed a connection, leaked a
// connection without a close, or recorded first-byte twice would be
// rejected, as would any event sequence the table does not license.

// lifecycleStart is the synthetic pre-accept state.
const lifecycleStart = obs.Kind(obs.NumKinds)

// lifecycleModel is the transition table: for each state (the last
// event recorded for the connection), the set of events that may
// legally follow. Absence means the transition is a conformance
// violation. obs.Close is terminal: no successors.
var lifecycleModel = map[obs.Kind][]obs.Kind{
	// A connection enters the system by being accepted, then records
	// its queue wait when a shard's loop picks it up.
	lifecycleStart: {obs.Accept},
	obs.Accept:     {obs.QueueWait},
	// From idle, either request bytes arrive or the peer goes away.
	obs.QueueWait: {obs.HeaderRead, obs.Close},
	// After first bytes: a complete request parses, or the bytes are
	// unparseable and the 400 goes straight out (first-byte with no
	// parse), or the peer closes mid-request.
	obs.HeaderRead: {obs.Parse, obs.FirstByte, obs.Close},
	// A parsed request is served or its handler panics — serving is
	// synchronous on the loop, so nothing else can intervene.
	obs.Parse: {obs.Handler, obs.Panic},
	// After a serve: the next pipelined request in the same batch, the
	// response's first byte (first response on the connection), or the
	// batch's write completion (first-byte already recorded earlier).
	obs.Handler: {obs.Parse, obs.FirstByte, obs.WriteComplete},
	// The isolated panic's 500 flushes like any response: first-byte if
	// none was recorded yet, write completion if an earlier request in
	// the batch set the serve clock, else straight to the close.
	obs.Panic: {obs.FirstByte, obs.WriteComplete, obs.Close},
	// First byte precedes the batch's write completion; a response with
	// no completed serve (bad request's 400, lone panic's 500) closes.
	obs.FirstByte: {obs.WriteComplete, obs.Close},
	// After a flushed batch: the next keep-alive request or teardown.
	obs.WriteComplete: {obs.HeaderRead, obs.Close},
	obs.Close:         {},
}

// lifecycleEdge names one transition for coverage bookkeeping.
func lifecycleEdge(from, to obs.Kind) string {
	f := "start"
	if from != lifecycleStart {
		f = from.String()
	}
	return f + "->" + to.String()
}

func TestLifecycleConformance(t *testing.T) {
	configs := []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"fanout", func(c *core.Config) { c.Shards = 0; c.Workers = 2 }},
		{"shards=1", func(c *core.Config) { c.Shards = 1 }},
		{"shards=4", func(c *core.Config) { c.Shards = 4 }},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) { lifecycleConformance(t, tc.mutate) })
	}
}

func lifecycleConformance(t *testing.T, mutate func(*core.Config)) {
	store := core.MapStore{
		"/a.txt": []byte("alpha"),
		"/b.txt": []byte("bravo-bravo"),
	}
	plane := obs.NewPlane(1 << 12)
	cfg := core.DefaultConfig(store)
	cfg.Obs = plane
	cfg.MaxConns = 2
	cfg.HandlerFault = func(path string) core.Fault {
		if path == "/panic" {
			return core.Fault{Panic: true}
		}
		return core.Fault{}
	}
	mutate(&cfg)
	srv, err := core.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	dial := func() net.Conn {
		t.Helper()
		c, err := net.DialTimeout("tcp", srv.Addr(), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		c.SetDeadline(time.Now().Add(10 * time.Second))
		return c
	}
	awaitConnsOpen := func(n int64, what string) {
		t.Helper()
		waitUntil(t, 5*time.Second, func() bool { return srv.Stats().ConnsOpen == n }, what)
	}
	// fresh dials once the server holds no connection. The server learns
	// of a client's close asynchronously, and with MaxConns = 2 a scenario
	// dialed while two earlier closes are still pending would be shed.
	fresh := func() net.Conn {
		t.Helper()
		awaitConnsOpen(0, "earlier scenarios' connections to close")
		return dial()
	}
	request := func(path, connection string) string {
		return fmt.Sprintf("GET %s HTTP/1.1\r\nHost: sut\r\nConnection: %s\r\n\r\n", path, connection)
	}
	readResp := func(br *bufio.Reader, wantStatus int) {
		t.Helper()
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("reading response: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("status = %d, want %d", resp.StatusCode, wantStatus)
		}
	}

	// Scenario 1 — plain: one request, server-initiated close.
	// Modeled: accept qw hr parse handler fb wc close.
	c := fresh()
	io.WriteString(c, request("/a.txt", "close"))
	readResp(bufio.NewReader(c), 200)
	c.Close()

	// Scenario 2 — keep-alive: two sequential requests, client close.
	// Covers wc->hr (the keepalive loop) and handler->wc (second
	// response on an already-observed connection).
	c = fresh()
	br := bufio.NewReader(c)
	io.WriteString(c, request("/a.txt", "keep-alive"))
	readResp(br, 200)
	io.WriteString(c, request("/b.txt", "keep-alive"))
	readResp(br, 200)
	c.Close()

	// Scenario 3 — pipelined: two requests in one write. Covers
	// handler->parse (back-to-back serves inside one read batch).
	c = fresh()
	br = bufio.NewReader(c)
	io.WriteString(c, request("/a.txt", "keep-alive")+request("/b.txt", "keep-alive"))
	readResp(br, 200)
	readResp(br, 200)
	c.Close()

	// Scenario 4 — unparseable bytes: the 400 goes out with no parse
	// event. Covers hr->fb and fb->close.
	c = fresh()
	io.WriteString(c, "\x00\x01 utterly not http\r\n\r\n")
	readResp(bufio.NewReader(c), 400)
	c.Close()

	// Scenario 5 — no request at all: connect, close. Covers qw->close.
	c = fresh()
	c.Close()

	// Scenario 6 — partial header then close: first bytes arrive but no
	// complete request ever does. Covers hr->close.
	c = fresh()
	io.WriteString(c, "GET /a.txt HT")
	time.Sleep(50 * time.Millisecond) // let the shard record the header read
	c.Close()

	// Scenario 7 — panic on the first request: the isolated 500 is the
	// connection's first response. Covers parse->panic and panic->fb.
	c = fresh()
	io.WriteString(c, request("/panic", "keep-alive"))
	readResp(bufio.NewReader(c), 500)
	c.Close()

	// Scenario 8 — keep-alive then a lone panic: the 500 batch has no
	// completed serve and first-byte is already recorded, so the panic
	// goes straight to close. Covers panic->close.
	c = fresh()
	br = bufio.NewReader(c)
	io.WriteString(c, request("/a.txt", "keep-alive"))
	readResp(br, 200)
	io.WriteString(c, request("/panic", "keep-alive"))
	readResp(br, 500)
	c.Close()

	// Scenario 9 — keep-alive then pipelined good+panic: the panic
	// batch contains a completed serve, so its flush records a write
	// completion. Covers panic->wc.
	c = fresh()
	br = bufio.NewReader(c)
	io.WriteString(c, request("/a.txt", "keep-alive"))
	readResp(br, 200)
	io.WriteString(c, request("/b.txt", "keep-alive")+request("/panic", "keep-alive"))
	readResp(br, 200)
	readResp(br, 500)
	c.Close()

	// Scenario 10 — shed: fill MaxConns with two held connections, then
	// require further arrivals to be refused with a 503 and a conn-0
	// shed event that never enters the lifecycle.
	holdA, holdB := fresh(), dial()
	awaitConnsOpen(2, "the two held connections to be adopted")
	for i := 0; i < 3; i++ {
		sc := dial()
		io.WriteString(sc, request("/a.txt", "close"))
		raw, _ := io.ReadAll(sc)
		sc.Close()
		if !strings.HasPrefix(string(raw), "HTTP/1.1 503 ") {
			t.Fatalf("over-capacity connection %d not shed: %q", i, raw)
		}
	}
	holdA.Close()
	holdB.Close()

	// Every opened connection must reach its terminal close before the
	// verdict is read — 11 connections entered the lifecycle (the shed
	// ones never do).
	const wantConns = 11
	deadline := time.Now().Add(5 * time.Second)
	for {
		closed := make(map[uint64]bool)
		for _, ev := range plane.Ring().Events() {
			if ev.Kind == obs.Close && ev.Conn != 0 {
				closed[ev.Conn] = true
			}
		}
		if len(closed) >= wantConns {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d connections closed", len(closed), wantConns)
		}
		time.Sleep(5 * time.Millisecond)
	}
	srv.Stop()

	if d := plane.Ring().Dropped(); d != 0 {
		t.Fatalf("trace ring dropped %d events; the conformance verdict needs all of them", d)
	}

	// Replay the ring through the model: every connection's event
	// sequence must be accepted, and the run must exercise every edge
	// the model declares.
	events := plane.Ring().Events()
	state := make(map[uint64]obs.Kind)
	covered := make(map[string]bool)
	sheds := 0
	for _, ev := range events {
		if ev.Kind == obs.Shed {
			if ev.Conn != 0 {
				t.Fatalf("shed event carries conn %d; sheds never enter the lifecycle", ev.Conn)
			}
			sheds++
			continue
		}
		if ev.Conn == 0 {
			t.Fatalf("lifecycle event %v with no connection id", ev.Kind)
		}
		cur, seen := state[ev.Conn]
		if !seen {
			cur = lifecycleStart
		}
		legal := false
		for _, next := range lifecycleModel[cur] {
			if next == ev.Kind {
				legal = true
				break
			}
		}
		if !legal {
			t.Fatalf("conn %d: illegal transition %s (modeled successors of %v: %v)",
				ev.Conn, lifecycleEdge(cur, ev.Kind), cur, lifecycleModel[cur])
		}
		covered[lifecycleEdge(cur, ev.Kind)] = true
		state[ev.Conn] = ev.Kind
	}
	if sheds < 3 {
		t.Fatalf("observed %d shed events, drove 3", sheds)
	}
	if len(state) != wantConns {
		t.Fatalf("ring shows %d connections, drove %d", len(state), wantConns)
	}
	for conn, last := range state {
		if last != obs.Close {
			t.Fatalf("conn %d ended in non-terminal state %v", conn, last)
		}
	}
	for from, nexts := range lifecycleModel {
		for _, to := range nexts {
			if e := lifecycleEdge(from, to); !covered[e] {
				t.Fatalf("modeled transition %s never exercised — the suite no longer covers the table", e)
			}
		}
	}
}
