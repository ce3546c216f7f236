//go:build linux

package core

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/sysfault"
)

// countingReader counts what the client has pulled off the socket, so
// the server's bytes_out can be held to the byte.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// The cork rule under the two write faults that interrupt a flush
// mid-train: a short write leaves a flagged partial segment behind, an
// ENOBUFS abandons the pass with flagged bytes possibly in the kernel.
// Pipelined batches must still arrive byte-exact and in order, the
// hardening counters must equal what the decision log says was
// injected, and the write site must replay from the seed. Then the same
// plan meets closing replies, one connection each: there the LAST write
// is flagged too (the close pushes it), so a short or stalled final
// write must resume under EPOLLOUT and still end in exactly one close.
// Under -tags invariants flush's no-orphan-cork assertion runs on every
// pass here.
func TestCorkedPipelineUnderWriteFaults(t *testing.T) {
	const (
		plan    = "write:short:0.25:len=3; write:enobufs:0.1"
		seed    = 5
		batches = 6
		depth   = 8
		closers = 24
	)
	big := make([]byte, 5000)
	for i := range big {
		big[i] = byte(i*31 + 7)
	}
	store := MapStore{"/a": []byte("hello world"), "/b": big, "/empty": {}}
	paths := []string{"/a", "/b", "/empty", "/nope"}
	cfg := DefaultConfig(store)
	cfg.Shards = 1 // one loop, lane 0: the write site is a single call stream
	srv := startServer(t, cfg)

	inj := sysfault.New(seed, sysfault.MustParsePlan(plan)...)
	sysfault.Install(inj)
	defer sysfault.Uninstall()

	c, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(20 * time.Second))
	cr := &countingReader{r: c}
	br := bufio.NewReader(cr)
	// wantReply reads one reply off br and holds it to the store.
	wantReply := func(what string, br *bufio.Reader, p string) {
		t.Helper()
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("%s (%s): %v", what, p, err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s (%s): body: %v", what, p, err)
		}
		body, ok := store[p]
		wantStatus := 200
		if !ok {
			wantStatus = 404
		}
		if resp.StatusCode != wantStatus || !bytes.Equal(got, body) {
			t.Fatalf("%s (%s): status %d with %d body bytes, want %d with %d",
				what, p, resp.StatusCode, len(got), wantStatus, len(body))
		}
	}
	for b := 0; b < batches; b++ {
		var wire strings.Builder
		var want []string
		for i := 0; i < depth; i++ {
			p := paths[(b+i)%len(paths)]
			conn := "keep-alive"
			if b == batches-1 && i == depth-1 {
				conn = "close"
			}
			fmt.Fprintf(&wire, "GET %s HTTP/1.1\r\nHost: x\r\nConnection: %s\r\n\r\n", p, conn)
			want = append(want, p)
		}
		if _, err := io.WriteString(c, wire.String()); err != nil {
			t.Fatal(err)
		}
		for i, p := range want {
			wantReply(fmt.Sprintf("batch %d reply %d", b, i), br, p)
		}
	}
	// The last request asked for close: nothing may trail the last reply.
	if rest, err := io.ReadAll(br); err != nil || len(rest) != 0 {
		t.Fatalf("after the last reply: %d stray bytes, err %v", len(rest), err)
	}
	for i := 0; i < closers; i++ {
		p := paths[i%len(paths)]
		cc, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		cc.SetDeadline(time.Now().Add(20 * time.Second))
		if _, err := fmt.Fprintf(cc, "GET %s HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n", p); err != nil {
			t.Fatal(err)
		}
		cr.r = cc
		cbr := bufio.NewReader(cr)
		wantReply(fmt.Sprintf("closing reply %d", i), cbr, p)
		if rest, err := io.ReadAll(cbr); err != nil || len(rest) != 0 {
			t.Fatalf("closing reply %d (%s): %d stray bytes before EOF, err %v", i, p, len(rest), err)
		}
		cc.Close()
	}
	// Every connection is gone, and each took exactly one close(2): the
	// seam counts a close after the real one, which is what the client's
	// EOF waits for, so the last count may trail it.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if inj.Stats()[sysfault.SiteClose].Calls == 1+closers && srv.Stats().ConnsOpen == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d closes at the seam for %d connections, conns_open %d",
				inj.Stats()[sysfault.SiteClose].Calls, 1+closers, srv.Stats().ConnsOpen)
		}
	}
	sysfault.Uninstall()

	var shorts, enobufs int64
	var live []sysfault.Decision
	for _, d := range inj.Decisions() {
		if d.Site != sysfault.SiteWrite {
			continue
		}
		live = append(live, d)
		switch d.Errno {
		case 0:
			shorts++
		case syscall.ENOBUFS:
			enobufs++
		}
	}
	if shorts == 0 || enobufs == 0 {
		t.Fatalf("vacuous: the plan fired %d shorts and %d ENOBUFS", shorts, enobufs)
	}
	st := srv.Stats()
	if st.WriteStalls != enobufs {
		t.Errorf("write_stalls = %d, want exactly the %d injected ENOBUFS", st.WriteStalls, enobufs)
	}
	if st.BytesOut != cr.n {
		t.Errorf("bytes_out = %d, the client read %d", st.BytesOut, cr.n)
	}
	if st.Replies != batches*depth+closers {
		t.Errorf("replies = %d, want %d", st.Replies, batches*depth+closers)
	}

	offline := sysfault.New(seed, sysfault.MustParsePlan(plan)...)
	var replay []sysfault.Decision
	for i := uint64(0); i < inj.Stats()[sysfault.SiteWrite].Calls; i++ {
		if d, ok := offline.Step(sysfault.SiteWrite); ok {
			replay = append(replay, d)
		}
	}
	if len(live) != len(replay) {
		t.Fatalf("write site: live run fired %d decisions, offline replay %d", len(live), len(replay))
	}
	for i := range live {
		if live[i] != replay[i] {
			t.Fatalf("write site decision %d diverged: live %v, replay %v", i, live[i], replay[i])
		}
	}
}
