package main

import (
	"bytes"
	"errors"
	"io"
)

// The driver reads replies itself instead of through httpwire.RespParser
// or net/http: the client must not be the bottleneck (RespParser copies
// every body byte into its own buffer), and a benchmark that parsed
// replies with the code under test could not see that code break.

// replyReader frames HTTP/1.1 replies with a Content-Length body off a
// byte stream. It keeps bytes that arrived past the end of one reply
// for the next (pipelining) and never allocates after construction.
type replyReader struct {
	read func([]byte) (int, error)
	buf  []byte
	r, w int // unread bytes are buf[r:w]
	// total counts every byte read off the stream, heads included, so
	// the client's byte count can be held against the server's
	// bytes_out.
	total int64
}

// readBufBytes holds the largest head plus a useful run of body; large
// bodies stream through it in pieces.
const readBufBytes = 256 << 10

func newReplyReader(read func([]byte) (int, error)) *replyReader {
	return &replyReader{read: read, buf: make([]byte, readBufBytes)}
}

// reset drops buffered bytes for a fresh connection.
func (rr *replyReader) reset(read func([]byte) (int, error)) {
	rr.read = read
	rr.r, rr.w = 0, 0
}

var (
	errBadStatus  = errors.New("bad status line")
	errNoLength   = errors.New("missing or malformed Content-Length")
	errHeadTooBig = errors.New("reply head exceeds the read buffer")
	errBodyBytes  = errors.New("body bytes differ from the object store")
)

var (
	headEnd       = []byte("\r\n\r\n")
	contentLength = []byte("content-length:")
)

// fill reads more bytes behind the unread region, compacting first when
// the tail of the buffer is exhausted.
func (rr *replyReader) fill() error {
	if rr.r == rr.w {
		rr.r, rr.w = 0, 0
	} else if rr.w == len(rr.buf) {
		if rr.r == 0 {
			return errHeadTooBig
		}
		copy(rr.buf, rr.buf[rr.r:rr.w])
		rr.w -= rr.r
		rr.r = 0
	}
	n, err := rr.read(rr.buf[rr.w:])
	if n > 0 {
		rr.w += n
		rr.total += int64(n)
		return nil
	}
	if err == nil {
		err = io.ErrUnexpectedEOF // read(2) returning 0: peer closed
	}
	return err
}

// next consumes one reply. want, when non-nil, is what the body must
// equal byte for byte; otherwise only the framing is checked and the
// body is discarded. It returns the status code, the declared body
// length, and the time source's reading when the head completed (for
// the wait/body span split; headAt is 0 when now is nil).
func (rr *replyReader) next(want []byte, now func() int64) (status int, length int64, headAt int64, err error) {
	scan := rr.r // where the search for the blank line resumes
	var head []byte
	for {
		if i := bytes.Index(rr.buf[scan:rr.w], headEnd); i >= 0 {
			end := scan + i + len(headEnd)
			head = rr.buf[rr.r:end]
			rr.r = end
			break
		}
		// Re-scan only new bytes, less a 3-byte overlap for a
		// terminator split across reads.
		if n := rr.w - (len(headEnd) - 1); n > scan {
			scan = n
		}
		r0 := rr.r
		if err := rr.fill(); err != nil {
			return 0, 0, 0, err
		}
		scan -= r0 - rr.r // fill may have moved the unread bytes left
	}
	if now != nil {
		headAt = now()
	}
	status, length, err = parseHead(head)
	if err != nil {
		return status, length, headAt, err
	}
	if want != nil && int64(len(want)) != length {
		// Length mismatches are the caller's to report; do not compare.
		want = nil
	}
	left := length
	off := int64(0)
	for left > 0 {
		if rr.r == rr.w {
			if err := rr.fill(); err != nil {
				return status, length, headAt, err
			}
		}
		n := int64(rr.w - rr.r)
		if n > left {
			n = left
		}
		if want != nil && !bytes.Equal(rr.buf[rr.r:rr.r+int(n)], want[off:off+n]) {
			err = errBodyBytes
		}
		rr.r += int(n)
		off += n
		left -= n
	}
	return status, length, headAt, err
}

// buffered reports unread bytes — after the last reply of a batch any
// are a framing violation.
func (rr *replyReader) buffered() int { return rr.w - rr.r }

// parseHead extracts the status code and Content-Length from a complete
// reply head (status line through the blank line).
func parseHead(head []byte) (status int, length int64, err error) {
	// "HTTP/1.1 200 OK\r\n"
	if len(head) < 15 || !bytes.HasPrefix(head, []byte("HTTP/1.")) || head[8] != ' ' {
		return 0, 0, errBadStatus
	}
	for _, c := range head[9:12] {
		if c < '0' || c > '9' {
			return 0, 0, errBadStatus
		}
		status = status*10 + int(c-'0')
	}
	length = -1
	rest := head
	for {
		i := bytes.IndexByte(rest, '\n')
		if i < 0 {
			break
		}
		rest = rest[i+1:]
		if len(rest) < len(contentLength) || !asciiEqualFold(rest[:len(contentLength)], contentLength) {
			continue
		}
		v := rest[len(contentLength):]
		for len(v) > 0 && (v[0] == ' ' || v[0] == '\t') {
			v = v[1:]
		}
		n, digits := int64(0), 0
		for len(v) > 0 && v[0] >= '0' && v[0] <= '9' {
			n = n*10 + int64(v[0]-'0')
			v = v[1:]
			digits++
			if digits > 18 {
				return status, 0, errNoLength
			}
		}
		if digits == 0 || len(v) == 0 || v[0] != '\r' {
			return status, 0, errNoLength
		}
		length = n
		break
	}
	if length < 0 {
		return status, 0, errNoLength
	}
	return status, length, nil
}

// asciiEqualFold compares a against lower-case b, ASCII only.
func asciiEqualFold(a, lower []byte) bool {
	for i := range lower {
		c := a[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}
