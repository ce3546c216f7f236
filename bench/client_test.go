package main

import (
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// cannedServer reads want request bytes from each connection, answers
// with out, then closes if closeAfter is set or keeps the connection
// open until the test ends.
func cannedServer(t *testing.T, want int, out []byte, closeAfter bool) string {
	t.Helper()
	ln, err := net.Listen("tcp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() { close(done); ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				if _, err := io.ReadFull(c, make([]byte, want)); err != nil {
					return
				}
				c.Write(out)
				if !closeAfter {
					<-done
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// One batch against servers that misbehave in each way the client must
// count: attempted and failed stay consistent, and a bad reply never
// leaves a latency sample behind.
func TestBatchAccounting(t *testing.T) {
	objs, err := buildObjects(objectSetSeed)
	if err != nil {
		t.Fatal(err)
	}
	keepAlive, _ := workloadByName("nio_small")
	pipelined, _ := workloadByName("nio_pipelined")
	churn, _ := workloadByName("nio_churn")
	// The first ids each stream draws, so the canned replies can be right.
	firstIDs := func(w workload, n int) []int {
		f, err := newFleet(w, "127.0.0.1:1", objs, 7, 1, clock{base: time.Now()}, false)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]int, n)
		for i := range ids {
			ids[i] = f.conns[0].pick.next()
		}
		return ids
	}
	good := func(id int) []byte { return reply("200 OK", "", objs.body(id)) }
	id := firstIDs(keepAlive, 1)[0]
	ids8 := firstIDs(pipelined, 8)
	var three []byte
	for _, i := range ids8[:3] {
		three = append(three, good(i)...)
	}

	for _, tc := range []struct {
		name       string
		w          workload
		out        []byte
		closeAfter bool
		n          int
		failed     int64
		samples    int
		errHas     string
	}{
		{"good reply", keepAlive, good(id), false, 1, 0, 1, ""},
		{"good reply then junk", keepAlive, append(good(id), "junk"...), false, 1, 1, 0, "beyond the last reply"},
		{"wrong length then junk", keepAlive, append(reply("200 OK", "", []byte("x")), "junk"...), false, 1, 1, 0, "Content-Length 1"},
		{"404", keepAlive, reply("404 Not Found", "", nil), false, 1, 1, 0, "status 404"},
		{"wrong bytes", keepAlive, reply("200 OK", "", make([]byte, len(objs.body(id)))), false, 1, 1, 0, "differ"},
		{"reset mid-batch", pipelined, three, true, 8, 5, 3, "batch abandoned"},
		{"churn, server closes", churn, good(id), true, 1, 0, 1, ""},
		{"churn, server keeps talking", churn, append(good(id), good(id)...), true, 1, 1, 0, "beyond the last reply"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := 0
			for _, i := range firstIDs(tc.w, tc.n) {
				want += len(requestBytes(i, tc.w.churn))
			}
			addr := cannedServer(t, want, tc.out, tc.closeAfter)
			f, err := newFleet(tc.w, addr, objs, 7, 1, clock{base: time.Now()}, false)
			if err != nil {
				t.Fatal(err)
			}
			c := f.conns[0]
			f.flags.verifyAll.Store(true)
			c.batch(tc.n)
			c.hangup()
			if c.attempted != int64(tc.n) || c.failed != tc.failed || len(c.samples) != tc.samples {
				t.Errorf("attempted %d failed %d samples %d; want %d, %d, %d (failures: %v)",
					c.attempted, c.failed, len(c.samples), tc.n, tc.failed, tc.samples, failureText(c.failures))
			}
			if tc.errHas != "" && !strings.Contains(failureText(c.failures), tc.errHas) {
				t.Errorf("failures %q do not mention %q", failureText(c.failures), tc.errHas)
			}
		})
	}
}

func failureText(fs []failure) string {
	var parts []string
	for _, f := range fs {
		parts = append(parts, fmt.Sprint(f.err))
	}
	return strings.Join(parts, "; ")
}

func TestQuotaClaim(t *testing.T) {
	objs, err := buildObjects(objectSetSeed)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workloadByName("nio_pipelined")
	f, err := newFleet(w, "127.0.0.1:1", objs, 7, 1, clock{base: time.Now()}, false)
	if err != nil {
		t.Fatal(err)
	}
	c := f.conns[0]
	if got := c.claim(8); got != 8 {
		t.Errorf("claim without a quota = %d", got)
	}
	c.quota = new(atomic.Int64)
	c.quota.Store(20)
	var got []int
	for i := 0; i < 4; i++ {
		got = append(got, c.claim(8))
	}
	if fmt.Sprint(got) != "[8 8 4 0]" {
		t.Errorf("claims against a quota of 20 = %v, want [8 8 4 0]", got)
	}
}
