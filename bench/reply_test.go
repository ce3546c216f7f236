package main

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"repro/internal/dist"
)

// fragReader hands out a byte stream in pieces of the given sizes
// (cycled), never more than the caller's buffer.
type fragReader struct {
	data  []byte
	sizes []int
	i     int
}

func (f *fragReader) read(p []byte) (int, error) {
	if len(f.data) == 0 {
		return 0, io.EOF
	}
	n := f.sizes[f.i%len(f.sizes)]
	f.i++
	if n > len(p) {
		n = len(p)
	}
	if n > len(f.data) {
		n = len(f.data)
	}
	copy(p, f.data[:n])
	f.data = f.data[n:]
	return n, nil
}

func reply(status string, headers string, body []byte) []byte {
	return append([]byte(fmt.Sprintf("HTTP/1.1 %s\r\nServer: t\r\n%sContent-Length: %d\r\n\r\n", status, headers, len(body))), body...)
}

func testBody(n int, seed uint64) []byte {
	rng := dist.NewRNG(seed)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Uint64())
	}
	return b
}

func TestReplyReaderFragmented(t *testing.T) {
	bodies := [][]byte{testBody(1, 1), testBody(700, 2), testBody(0, 3), testBody(5000, 4), testBody(64, 5)}
	var stream []byte
	for i, b := range bodies {
		stream = append(stream, reply("200 OK", fmt.Sprintf("X-N: %d\r\n", i), b)...)
	}
	for _, sizes := range [][]int{{1}, {2}, {3, 1}, {7, 1, 19}, {4096}, {1 << 20}} {
		t.Run(fmt.Sprint(sizes), func(t *testing.T) {
			fr := &fragReader{data: append([]byte(nil), stream...), sizes: sizes}
			rr := newReplyReader(fr.read)
			for i, want := range bodies {
				status, length, _, err := rr.next(want, nil)
				if err != nil || status != 200 || length != int64(len(want)) {
					t.Fatalf("reply %d: status %d length %d err %v", i, status, length, err)
				}
			}
			if rr.buffered() != 0 {
				t.Errorf("%d bytes left after the last reply", rr.buffered())
			}
			if rr.total != int64(len(stream)) {
				t.Errorf("counted %d bytes, stream has %d", rr.total, len(stream))
			}
			if _, _, _, err := rr.next(nil, nil); err != io.EOF {
				t.Errorf("reading past the end: %v, want io.EOF", err)
			}
		})
	}
}

// A body larger than the read buffer streams through it; a head split
// exactly across the buffer's compaction is still found.
func TestReplyReaderLargeBodyAndCompaction(t *testing.T) {
	big := testBody(3*readBufBytes+17, 9)
	small := testBody(10, 10)
	stream := append(reply("200 OK", "", big), reply("200 OK", "", small)...)
	fr := &fragReader{data: stream, sizes: []int{readBufBytes - 5, 11, 64 << 10}}
	rr := newReplyReader(fr.read)
	if _, length, _, err := rr.next(big, nil); err != nil || length != int64(len(big)) {
		t.Fatalf("big reply: length %d err %v", length, err)
	}
	if _, length, _, err := rr.next(small, nil); err != nil || length != int64(len(small)) {
		t.Fatalf("reply after the big one: length %d err %v", length, err)
	}
}

func TestReplyReaderHeadClock(t *testing.T) {
	fr := &fragReader{data: reply("200 OK", "", testBody(100, 1)), sizes: []int{9}}
	rr := newReplyReader(fr.read)
	ticks := int64(0)
	_, _, headAt, err := rr.next(nil, func() int64 { ticks++; return 41 + ticks })
	if err != nil || headAt != 42 || ticks != 1 {
		t.Errorf("headAt = %d after %d clock reads, err %v; want 42 after 1", headAt, ticks, err)
	}
}

func TestReplyReaderRejects(t *testing.T) {
	body := testBody(50, 1)
	wrong := append([]byte(nil), body...)
	wrong[49] ^= 1
	for _, tc := range []struct {
		name   string
		stream []byte
		want   []byte
		err    error
	}{
		{"body differs in the last byte", reply("200 OK", "", wrong), body, errBodyBytes},
		{"no content-length", []byte("HTTP/1.1 200 OK\r\nServer: t\r\n\r\n"), nil, errNoLength},
		{"content-length not a number", []byte("HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n"), nil, errNoLength},
		{"content-length with trailing junk", []byte("HTTP/1.1 200 OK\r\nContent-Length: 5x\r\n\r\nhello"), nil, errNoLength},
		{"not http", []byte("SSH-2.0-OpenSSH_9\r\nContent-Length: 0\r\n\r\n"), nil, errBadStatus},
		{"status not numeric", []byte("HTTP/1.1 2x0 OK\r\nContent-Length: 0\r\n\r\n"), nil, errBadStatus},
		{"peer closes mid-body", reply("200 OK", "", body)[:60], nil, io.EOF},
		{"peer closes mid-head", []byte("HTTP/1.1 200 OK\r\nContent-Le"), nil, io.EOF},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fr := &fragReader{data: tc.stream, sizes: []int{5}}
			_, _, _, err := newReplyReader(fr.read).next(tc.want, nil)
			if err != tc.err {
				t.Errorf("err = %v, want %v", err, tc.err)
			}
		})
	}
	// read(2) returning 0 bytes and no error is a closed peer.
	rr := newReplyReader(func([]byte) (int, error) { return 0, nil })
	if _, _, _, err := rr.next(nil, nil); err != io.ErrUnexpectedEOF {
		t.Errorf("zero-byte read: %v, want io.ErrUnexpectedEOF", err)
	}
	// A head that never ends must not grow without bound.
	rr = newReplyReader(func(p []byte) (int, error) {
		for i := range p {
			p[i] = 'a'
		}
		return len(p), nil
	})
	if _, _, _, err := rr.next(nil, nil); err != errHeadTooBig {
		t.Errorf("endless head: %v, want errHeadTooBig", err)
	}
}

func TestReplyReaderStatusAndCase(t *testing.T) {
	stream := []byte("HTTP/1.0 404 Not Found\r\ncontent-LENGTH:   3\r\n\r\nabc")
	fr := &fragReader{data: stream, sizes: []int{4}}
	status, length, _, err := newReplyReader(fr.read).next(nil, nil)
	if err != nil || status != 404 || length != 3 {
		t.Errorf("status %d length %d err %v; want 404, 3, nil", status, length, err)
	}
}

// A length mismatch is the caller's to report; the reader must still
// frame the reply by the declared length and not compare.
func TestReplyReaderLengthMismatchStillFrames(t *testing.T) {
	stream := append(reply("200 OK", "", testBody(8, 1)), reply("200 OK", "", testBody(4, 2))...)
	fr := &fragReader{data: stream, sizes: []int{3}}
	rr := newReplyReader(fr.read)
	if _, length, _, err := rr.next(testBody(9, 1), nil); err != nil || length != 8 {
		t.Fatalf("length %d err %v; want 8, nil", length, err)
	}
	if _, length, _, err := rr.next(testBody(4, 2), nil); err != nil || length != 4 {
		t.Fatalf("next reply: length %d err %v", length, err)
	}
}

func TestRequestBytes(t *testing.T) {
	if got, want := string(requestBytes(17, false)), "GET /obj/17 HTTP/1.1\r\nHost: bench\r\n\r\n"; got != want {
		t.Errorf("keep-alive request = %q, want %q", got, want)
	}
	if got := requestBytes(17, true); !bytes.Contains(got, []byte("\r\nConnection: close\r\n\r\n")) {
		t.Errorf("churn request lacks Connection: close: %q", got)
	}
}
