package httpwire

import (
	"bytes"
	"strconv"
)

// This file is the client side of the wire: an incremental HTTP/1.x
// *response* parser. httperf parses responses itself rather than using a
// client library (it needs to count bytes and detect stalls precisely);
// the load generator here does the same, so both directions of the
// protocol are owned by this package.

// Response is one parsed response head plus body accounting. The body is
// not retained — the load generator only needs its length — but every
// body byte must be fed through the parser for framing. Like a Request
// it owns one head string and aliases nothing of the caller's.
type Response struct {
	Proto      string
	StatusCode int
	Headers    []Header
	// ContentLength is the declared body size (-1 if absent).
	ContentLength int64
	// BodyBytes is how many body bytes have been consumed so far.
	BodyBytes int64
	// KeepAlive reports whether the connection may be reused.
	KeepAlive bool
	// Chunked reports Transfer-Encoding: chunked framing.
	Chunked bool

	inline [inlineHeaders]Header // Headers' array while it fits
}

// Get returns the first header with the given case-insensitive name.
func (r *Response) Get(name string) (string, bool) {
	for _, h := range r.Headers {
		if equalFold(h.Name, name) {
			return h.Value, true
		}
	}
	return "", false
}

// respState is the response parser's position in the grammar.
type respState int

const (
	rsStatusLine respState = iota
	rsHeaders
	rsBody
	rsChunkSize
	rsChunkData
	rsChunkCRLF
	rsTrailer
)

// RespParser converts a response byte stream into Responses. Feed it
// whatever the socket produced: heads and framing lines are scanned
// where they are, and body bytes are only counted — the parser's own
// buffer never holds more than a head that spans Feed calls. Not safe
// for concurrent use.
type RespParser struct {
	state respState
	scan  lineScanner
	// The status line of the head being scanned.
	proto string
	code  int
	// cur is the response whose body is being framed (nil up to the end
	// of its head).
	cur      *Response
	bodyLeft int64
	parsed   int64
}

// Reset clears parser state for connection reuse.
func (p *RespParser) Reset() {
	p.state = rsStatusLine
	p.scan.release()
	p.cur = nil
	p.bodyLeft = 0
}

// Parsed returns how many complete responses have been produced.
func (p *RespParser) Parsed() int64 { return p.parsed }

// Feed consumes data and appends completed responses to dst. Responses
// appear once fully framed (headers + body consumed). A non-nil error is
// unrecoverable for the connection. The responses do not alias data.
//
//nio:hot
func (p *RespParser) Feed(dst []*Response, data []byte) ([]*Response, error) {
	pos, hs := 0, 0 // next unread byte of data; where the current head or framing line starts in it
	for {
		switch p.state {
		case rsBody, rsChunkData:
			n := int64(len(data) - pos)
			if p.bodyLeft < 0 || n < p.bodyLeft { // a read-to-EOF body consumes everything
				p.cur.BodyBytes += n
				if p.bodyLeft > 0 {
					p.bodyLeft -= n
				}
				return dst, nil
			}
			p.cur.BodyBytes += p.bodyLeft
			pos += int(p.bodyLeft)
			p.bodyLeft = 0
			if p.state == rsChunkData {
				p.state = rsChunkCRLF
			} else {
				dst = append(dst, p.finish())
			}
		default:
			if p.state != rsHeaders {
				hs = pos
			}
			line, off, ok := p.scan.next(data, &pos, hs)
			if len(line) > MaxLineBytes {
				return dst, parseErr("response line exceeds %d bytes", MaxLineBytes)
			}
			if !ok {
				return dst, nil
			}
			done, err := p.consumeLine(line, off, data, hs)
			if err != nil {
				return dst, err
			}
			if done {
				dst = append(dst, p.finish())
			}
			if p.state != rsHeaders {
				p.scan.release()
			}
		}
	}
}

// finish emits the current response and resets for the next one.
//
//nio:hot
func (p *RespParser) finish() *Response {
	resp := p.cur
	p.cur = nil
	p.state = rsStatusLine
	p.parsed++
	return resp
}

// consumeLine advances the state machine by one line, found at offset
// off of the head that starts at data[hs] (see lineScanner.next); done
// reports a completed response.
//
//nio:hot
func (p *RespParser) consumeLine(line []byte, off int, data []byte, hs int) (done bool, err error) {
	switch p.state {
	case rsStatusLine:
		if len(line) == 0 {
			return false, nil // tolerate stray CRLF between responses
		}
		if err := p.statusLine(line); err != nil {
			return false, err
		}
		p.scan.beginHead()
		p.state = rsHeaders
		return false, nil

	case rsHeaders:
		if len(line) != 0 {
			_, _, err := p.scan.field(line, off)
			return false, err
		}
		// Blank line: the head is complete. It becomes one string and one
		// struct; then resolve framing.
		s := string(p.scan.head(data, hs, off)) //nio:ok hotalloc -- one string per head
		resp := new(Response)                   //nio:ok hotalloc -- one struct per message
		resp.Proto, resp.StatusCode = p.proto, p.code
		resp.Headers = p.scan.cutHeaders(resp.inline[:0], s)
		p.cur = resp
		p.resolveFraming()
		switch {
		case noBody(p.cur.StatusCode) || p.cur.ContentLength == 0 && !p.cur.Chunked:
			// A 1xx, 204 or 304 ends at the blank line whatever its fields
			// say (RFC 9112 §6.3 rule 1).
			return true, nil
		case p.cur.Chunked:
			p.state = rsChunkSize
			return false, nil
		case p.cur.ContentLength > 0:
			p.bodyLeft = p.cur.ContentLength
			p.state = rsBody
			return false, nil
		default:
			// No length, not chunked: body runs to connection close.
			p.bodyLeft = -1
			p.state = rsBody
			return false, nil
		}

	case rsChunkSize:
		size, err := parseChunkSize(line)
		if err != nil {
			return false, err
		}
		if size == 0 {
			p.state = rsTrailer
			return false, nil
		}
		p.bodyLeft = size
		p.state = rsChunkData
		return false, nil

	case rsChunkCRLF:
		if len(line) != 0 {
			return false, parseErr("missing CRLF after chunk data")
		}
		p.state = rsChunkSize
		return false, nil

	case rsTrailer:
		if len(line) == 0 {
			return true, nil // end of trailers: response complete
		}
		return false, nil // ignore trailer fields

	default:
		return false, parseErr("internal: consumeLine in state %d", p.state)
	}
}

// resolveFraming inspects the headers once they are complete: the first
// Content-Length, Transfer-Encoding and Connection fields decide, found
// in one pass (the name's length tells almost every field apart).
//
//nio:hot
func (p *RespParser) resolveFraming() {
	r := p.cur
	r.ContentLength = -1
	var conn string
	var sawLength, sawCoding, sawConn bool
	for _, h := range r.Headers {
		switch len(h.Name) {
		case len("Content-Length"):
			if !sawLength && equalFold(h.Name, "Content-Length") {
				sawLength = true
				if n, err := strconv.ParseInt(h.Value, 10, 64); err == nil && n >= 0 {
					r.ContentLength = n
				}
			}
		case len("Transfer-Encoding"):
			if !sawCoding && equalFold(h.Name, "Transfer-Encoding") {
				sawCoding = true
				r.Chunked = equalFold(h.Value, "chunked")
			}
		case len("Connection"):
			if !sawConn && equalFold(h.Name, "Connection") {
				sawConn = true
				conn = h.Value
			}
		}
	}
	if r.Proto == proto11 {
		r.KeepAlive = !equalFold(conn, "close")
	} else {
		r.KeepAlive = equalFold(conn, "keep-alive")
	}
	// A read-to-EOF body forbids reuse regardless of headers.
	if !r.Chunked && r.ContentLength < 0 && !noBody(r.StatusCode) {
		r.KeepAlive = false
	}
}

// noBody reports statuses that never carry a body.
func noBody(code int) bool {
	return code/100 == 1 || code == 204 || code == 304
}

// statusLine checks the status line, which starts its head, and keeps
// its protocol and code for the response the head will become.
//
//nio:hot
func (p *RespParser) statusLine(line []byte) error {
	sp1 := bytes.IndexByte(line, ' ')
	if sp1 <= 0 {
		return parseErr("malformed status line %q", line)
	}
	if p.proto = protoOf(line[:sp1]); p.proto == "" {
		return parseErr("unsupported protocol %q", line[:sp1])
	}
	rest := line[sp1+1:]
	if len(rest) < 3 {
		return parseErr("malformed status line %q", line)
	}
	code := 0
	for _, c := range rest[:3] {
		if c < '0' || c > '9' {
			return parseErr("bad status code in %q", line)
		}
		code = code*10 + int(c-'0')
	}
	if code < 100 || code > 599 {
		return parseErr("bad status code in %q", line)
	}
	p.code = code
	return nil
}

func parseChunkSize(line []byte) (int64, error) {
	// Chunk extensions (";...") are permitted and ignored.
	if i := bytes.IndexByte(line, ';'); i >= 0 {
		line = line[:i]
	}
	line = bytes.TrimSpace(line)
	if len(line) == 0 || len(line) > 16 {
		return 0, parseErr("bad chunk size %q", line)
	}
	n, err := strconv.ParseInt(string(line), 16, 64)
	if err != nil || n < 0 {
		return 0, parseErr("bad chunk size %q", line)
	}
	if n > MaxBodyBytes*64 {
		return 0, parseErr("chunk size %d too large", n)
	}
	return n, nil
}
