//go:build linux

package core

import (
	"bytes"
	"testing"

	"repro/internal/httpwire"
)

func newTestConn() *conn {
	c := &conn{}
	c.outBase = c.outInline[:0]
	c.out = c.outBase
	return c
}

// A drained queue restarts at the front of the array and of the head
// arena it already has: after one batch has sized them, queueing and
// popping the next batch allocates nothing.
func TestOutQueueAndHeadArenaAreReused(t *testing.T) {
	c := newTestConn()
	body := []byte("body")
	batch := func() {
		for i := 0; i < 8; i++ {
			c.pushHead(200, "text/plain", int64(len(body)), true, "", "")
			c.push(outSeg{buf: body})
			c.endReply()
		}
		for len(c.out) > 0 {
			c.pop()
		}
	}
	batch()
	if n := testing.AllocsPerRun(50, batch); n != 0 {
		t.Fatalf("a steady-state batch of 8 replies allocated %.0f times, want 0", n)
	}
	if len(c.out) != 0 || cap(c.out) < 16 || len(c.hbuf) != 0 {
		t.Fatalf("drained queue: len %d cap %d, arena len %d; want 0, >= 16, 0", len(c.out), cap(c.out), len(c.hbuf))
	}
}

// Heads queued before the arena (or the queue's array) had to grow must
// stay intact: they keep the array they were serialized into, and a
// partly sent queue is never rewound.
func TestQueuedHeadsSurviveGrowth(t *testing.T) {
	c := newTestConn()
	var want [][]byte
	for i := 0; i < 40; i++ { // 40 heads of ~150 B: several arena and array growths
		c.pushHead(200, "text/plain", int64(i), i%2 == 0, "", "")
		c.endReply()
		want = append(want, httpwire.AppendResponseHeader(nil, 200, "text/plain", int64(i), i%2 == 0))
		if i == 10 { // a partial drain in the middle of the batch
			for j := 0; j < 5; j++ {
				if !bytes.Equal(c.out[0].buf, want[0]) {
					t.Fatalf("head %d corrupted before it was sent", j)
				}
				c.pop()
				want = want[1:]
			}
		}
	}
	if len(c.out) != len(want) {
		t.Fatalf("%d segments queued, want %d", len(c.out), len(want))
	}
	for i, w := range want {
		seg := c.out[0]
		if !bytes.Equal(seg.buf, w) || !seg.eor {
			t.Fatalf("queued head %d = %q (eor %v), want %q", i, seg.buf, seg.eor, w)
		}
		c.pop()
	}
	// An arena a long batch grew is not kept by an idle connection.
	for i := 0; i < 200; i++ {
		c.pushHead(200, "text/plain", 0, true, "", "")
	}
	for len(c.out) > 0 {
		c.pop()
	}
	if cap(c.hbuf) > headArenaKeep {
		t.Fatalf("idle connection keeps a %d-byte head arena, want <= %d", cap(c.hbuf), headArenaKeep)
	}
}
