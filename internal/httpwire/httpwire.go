// Package httpwire is the HTTP/1.x wire substrate shared by both live
// servers: an *incremental* request parser that can be fed arbitrary byte
// fragments (which a non-blocking reactor requires — a read may end in the
// middle of a header), and a response serializer with a cached Date
// header. Persistent connections and pipelining are supported, because
// the workload the paper generates uses both.
//
// The parser is deliberately restricted to what a static web server
// needs: request line + headers, no request bodies beyond an optional
// Content-Length skip, bounded line and header sizes.
package httpwire

import (
	"bytes"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"
)

// Limits protecting the parser from hostile or corrupt input.
const (
	// MaxLineBytes bounds the request line and any single header line.
	MaxLineBytes = 8 << 10
	// MaxHeaderCount bounds the number of headers per request.
	MaxHeaderCount = 64
	// MaxBodyBytes bounds an optional request body we are asked to skip.
	MaxBodyBytes = 1 << 20
)

// Request is one parsed HTTP request. It owns its memory: every string in
// it is a substring of one head string made when the request completed,
// so it stays valid whatever the caller does with its read buffer next.
type Request struct {
	Method  string
	Path    string
	Proto   string // "HTTP/1.0" or "HTTP/1.1"
	Headers []Header
	// KeepAlive reports whether the connection should persist after the
	// response, per the HTTP/1.0 and 1.1 rules.
	KeepAlive bool

	inline [inlineRequestHeaders]Header // Headers' array while it fits
}

// inlineRequestHeaders is Request's share of the rule in scan.go. What
// this tier's own clients and proxy send carries 1 to 3 fields, and a
// batch of pipelined requests is that many structs at once: at 8, the
// struct's size class read +2.6 % of server RSS on bench's nio_pipelined
// (10 of 10 pairs); at 4 it reads the parent's figure.
const inlineRequestHeaders = 4

// Header is a single header field.
type Header struct {
	Name  string
	Value string
}

// Get returns the first header with the given case-insensitive name.
//
//nio:hot
func (r *Request) Get(name string) (string, bool) {
	for _, h := range r.Headers {
		if equalFold(h.Name, name) {
			return h.Value, true
		}
	}
	return "", false
}

// equalFold is an allocation-free ASCII case-insensitive compare.
//
//nio:hot
func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// ParseError describes malformed input; servers answer it with 400.
type ParseError struct {
	Reason string
}

// Error implements the error interface.
func (e *ParseError) Error() string { return "httpwire: " + e.Reason }

func parseErr(format string, args ...any) error {
	return &ParseError{Reason: fmt.Sprintf(format, args...)}
}

const (
	proto10 = "HTTP/1.0"
	proto11 = "HTTP/1.1"
)

// protoOf returns the protocol constant b spells, "" if neither.
//
//nio:hot
func protoOf(b []byte) string {
	if len(b) != len(proto11) {
		return ""
	}
	for i := 0; i < len(proto11)-1; i++ {
		if b[i] != proto11[i] {
			return ""
		}
	}
	switch b[len(b)-1] {
	case '1':
		return proto11
	case '0':
		return proto10
	}
	return ""
}

// parserState is the incremental parser's position in the grammar.
type parserState int

const (
	stRequestLine parserState = iota
	stHeaders
	stBody
)

// Parser converts a byte stream into requests. Feed it whatever the
// socket produced; it scans the bytes where they are and keeps its own
// copy only of a head that spans Feed calls. Not safe for concurrent use
// — each connection owns one parser.
type Parser struct {
	state parserState
	scan  lineScanner
	// The request line of the head being scanned: the offsets of its two
	// spaces, and its protocol.
	sp1, sp2 int
	proto    string
	// clMark is 1 + the index in scan.marks of the head's Content-Length
	// field, 0 while it has none.
	clMark   int
	bodyLeft int64
	// counters for diagnostics
	parsed int64
}

// Reset returns the parser to its initial state, retaining the buffer's
// capacity (connection reuse in a pool).
func (p *Parser) Reset() {
	p.state = stRequestLine
	p.scan.release()
	p.bodyLeft = 0
}

// Parsed returns how many complete requests this parser has produced.
func (p *Parser) Parsed() int64 { return p.parsed }

// Pending reports whether the parser holds a partially received request
// (buffered bytes or mid-grammar state). This is the condition a
// header-read timeout guards: a peer that opened a request but never
// finishes it is pinning parser buffers.
func (p *Parser) Pending() bool { return len(p.scan.buf) > 0 || p.state != stRequestLine }

// Feed consumes data and appends any completed requests to dst, returning
// the extended slice. A non-nil error means the stream is unrecoverable
// (the connection should be answered with 400 and closed). The requests
// do not alias data.
//
//nio:hot
func (p *Parser) Feed(dst []*Request, data []byte) ([]*Request, error) {
	pos, hs := 0, 0 // next unread byte of data; where the current head starts in it
	for {
		if p.state == stBody {
			n := int64(len(data) - pos)
			if n < p.bodyLeft {
				p.bodyLeft -= n
				return dst, nil
			}
			pos += int(p.bodyLeft)
			p.bodyLeft = 0
			p.state = stRequestLine
		}
		if p.state == stRequestLine {
			hs = pos
		}
		line, off, ok := p.scan.next(data, &pos, hs)
		if len(line) > MaxLineBytes {
			return dst, parseErr("line exceeds %d bytes", MaxLineBytes)
		}
		if !ok {
			return dst, nil
		}
		switch {
		case p.state == stRequestLine:
			if len(line) == 0 {
				p.scan.release() // tolerate leading blank lines (RFC 9112 §2.2)
				continue
			}
			if err := p.requestLine(line); err != nil {
				return dst, err
			}
		case len(line) != 0:
			if err := p.headerLine(line, off, p.scan.head(data, hs, off)); err != nil {
				return dst, err
			}
		default:
			dst = append(dst, p.finish(p.scan.head(data, hs, off)))
			p.scan.release()
		}
	}
}

// requestLine checks the request line, which starts its head, and
// records where its three tokens sit.
//
//nio:hot
func (p *Parser) requestLine(line []byte) error {
	sp1 := bytes.IndexByte(line, ' ')
	if sp1 <= 0 {
		return parseErr("malformed request line %q", line)
	}
	sp2 := bytes.IndexByte(line[sp1+1:], ' ')
	if sp2 <= 0 {
		return parseErr("malformed request line %q", line)
	}
	sp2 += sp1 + 1
	if p.proto = protoOf(line[sp2+1:]); p.proto == "" {
		return parseErr("unsupported protocol %q", line[sp2+1:])
	}
	if target := line[sp1+1 : sp2]; target[0] != '/' && (len(target) != 1 || target[0] != '*') {
		return parseErr("bad request target %q", target)
	}
	p.sp1, p.sp2 = sp1, sp2
	p.clMark, p.bodyLeft = 0, 0
	p.scan.beginHead()
	p.state = stHeaders
	return nil
}

// headerLine checks one header line at offset off of the head, whose
// bytes so far are head. The two fields that decide where the request
// ends are settled here, while a disagreement can still be refused.
//
//nio:hot
func (p *Parser) headerLine(line []byte, off int, head []byte) error {
	name, value, err := p.scan.field(line, off)
	if err != nil {
		return err
	}
	switch {
	case nameIs(name, "content-length"):
		n, ok := parseLength(value, MaxBodyBytes)
		if !ok {
			return parseErr("bad Content-Length %q", value)
		}
		if p.clMark != 0 {
			// A second Content-Length is legal only as a repetition of the
			// first (RFC 9112 §6.3): two parsers on one path that each
			// pick a different one disagree about where the request ends.
			if m := p.scan.marks[p.clMark-1]; !bytes.Equal(head[m.val:m.end], value) {
				return parseErr("conflicting Content-Length %q", value)
			}
		}
		p.clMark = len(p.scan.marks)
		p.bodyLeft = n
	case nameIs(name, "transfer-encoding"):
		// Request bodies are skipped by Content-Length only. Accepting a
		// coding we do not decode would parse its body as the next
		// request, and the proxy would forward it without the header.
		return parseErr("Transfer-Encoding %q in a request is not supported", value)
	}
	return nil
}

// finish turns the scanned head into the request it describes: one
// string, one struct, everything else a substring.
//
//nio:hot
func (p *Parser) finish(head []byte) *Request {
	s := string(head)   //nio:ok hotalloc -- one string per head
	req := new(Request) //nio:ok hotalloc -- one struct per message
	req.Method = s[:p.sp1]
	req.Path = s[p.sp1+1 : p.sp2]
	req.Proto = p.proto
	req.Headers = p.scan.cutHeaders(req.inline[:0], s)
	conn, _ := req.Get("Connection")
	if req.Proto == proto11 {
		req.KeepAlive = !equalFold(conn, "close")
	} else {
		req.KeepAlive = equalFold(conn, "keep-alive")
	}
	p.parsed++
	if p.bodyLeft > 0 {
		p.state = stBody
	} else {
		p.state = stRequestLine
	}
	return req
}

// ---------------------------------------------------------------------
// Response serialization
// ---------------------------------------------------------------------

// StatusText returns the reason phrase for the handful of statuses a
// static server emits.
func StatusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 304:
		return "Not Modified"
	case 400:
		return "Bad Request"
	case 404:
		return "Not Found"
	case 408:
		return "Request Timeout"
	case 500:
		return "Internal Server Error"
	case 501:
		return "Not Implemented"
	case 502:
		return "Bad Gateway"
	case 503:
		return "Service Unavailable"
	default:
		return "Status"
	}
}

// dateCache caches the formatted Date header; formatting RFC 1123 on
// every response measurably costs under load.
type dateCache struct {
	v atomic.Value // string
}

var httpDate dateCache

// DateString returns the current RFC 1123 date, refreshed at most once a
// second by RefreshDate (the servers tick it); it is initialized lazily.
//
//nio:hot
func DateString() string {
	if s, ok := httpDate.v.Load().(string); ok && s != "" {
		return s
	}
	return RefreshDate(time.Now())
}

// RefreshDate formats and caches the Date header for t.
func RefreshDate(t time.Time) string {
	s := t.UTC().Format(time.RFC1123)
	// RFC 9110 wants "GMT", Go's RFC1123 produces "UTC".
	if len(s) >= 3 && s[len(s)-3:] == "UTC" {
		s = s[:len(s)-3] + "GMT"
	}
	httpDate.v.Store(s)
	return s
}

// AppendResponseHeader serializes a response head into dst and returns
// the extended slice. keepAlive controls the Connection header;
// contentLen is required (static server — always known).
//
//nio:hot
func AppendResponseHeader(dst []byte, code int, contentType string, contentLen int64, keepAlive bool) []byte {
	return AppendResponseHeaderValidators(dst, code, contentType, contentLen, keepAlive, "", "")
}

// AppendResponseHeaderExtra is AppendResponseHeader plus arbitrary
// additional header fields, emitted just before the Connection header —
// e.g. Retry-After on a shed 503. Names and values must already be
// valid header text; nothing is escaped.
//
//nio:hot
func AppendResponseHeaderExtra(dst []byte, code int, contentType string, contentLen int64, keepAlive bool, extra ...Header) []byte {
	return appendHead(dst, code, contentType, contentLen, keepAlive, "", "", extra)
}

// AppendResponseHeaderValidators is AppendResponseHeader plus cache
// validators: non-empty etag and lastModified (a preformatted HTTP-date)
// are emitted as ETag and Last-Modified. A 304 carries its validators
// but no Content-Length — it has no body by definition, and repeating
// the entity length would only invite client disagreement about framing.
//
//nio:hot
func AppendResponseHeaderValidators(dst []byte, code int, contentType string, contentLen int64, keepAlive bool, etag, lastModified string) []byte {
	return appendHead(dst, code, contentType, contentLen, keepAlive, etag, lastModified, nil)
}

// appendHead is the single serialization path under the three public
// Append wrappers: pure appends into the caller's buffer, no
// intermediate allocation.
//
//nio:hot
func appendHead(dst []byte, code int, contentType string, contentLen int64, keepAlive bool, etag, lastModified string, extra []Header) []byte {
	dst = append(dst, "HTTP/1.1 "...)
	dst = strconv.AppendInt(dst, int64(code), 10)
	dst = append(dst, ' ')
	dst = append(dst, StatusText(code)...)
	dst = append(dst, "\r\nServer: nio-go/1.0\r\nDate: "...)
	dst = append(dst, DateString()...)
	dst = append(dst, "\r\nContent-Type: "...)
	if contentType == "" {
		contentType = "application/octet-stream"
	}
	dst = append(dst, contentType...)
	if code != 304 {
		dst = append(dst, "\r\nContent-Length: "...)
		dst = strconv.AppendInt(dst, contentLen, 10)
	}
	if etag != "" {
		dst = append(dst, "\r\nETag: "...)
		dst = append(dst, etag...)
	}
	if lastModified != "" {
		dst = append(dst, "\r\nLast-Modified: "...)
		dst = append(dst, lastModified...)
	}
	for _, h := range extra {
		dst = append(dst, "\r\n"...)
		dst = append(dst, h.Name...)
		dst = append(dst, ": "...)
		dst = append(dst, h.Value...)
	}
	if keepAlive {
		dst = append(dst, "\r\nConnection: keep-alive\r\n\r\n"...)
	} else {
		dst = append(dst, "\r\nConnection: close\r\n\r\n"...)
	}
	return dst
}

// AppendRefusal serializes the 503 that answers a connection a server
// will not serve — turned away at accept by the admission controller,
// the MaxConns ceiling or the descriptor-exhaustion recovery: Retry-After
// and Connection: close, so a well-behaved client backs off instead of
// hammering, and from a proxy its Via token, so the client can attribute
// the refusal to the tier (via == "" omits it).
func AppendRefusal(dst []byte, retryAfterSec int, via string) []byte {
	extra := [2]Header{{Name: "Retry-After", Value: strconv.Itoa(retryAfterSec)}, {Name: "Via", Value: via}}
	n := len(extra)
	if via == "" {
		n = 1
	}
	return AppendResponseHeaderExtra(dst, 503, "text/plain", 0, false, extra[:n]...)
}

// Refusal is AppendRefusal for a fixed Retry-After, serialized once and
// reused: an accept storm sheds every connection with the same bytes.
// Only the Date in them moves, so the head is rebuilt when the cached
// Date has — at most once a second. Not safe for concurrent use: each
// accepting thread holds its own.
type Refusal struct {
	retryAfterSec int
	via           string
	date          string
	head          []byte
}

// NewRefusal prepares the refusal; the first Bytes call serializes it.
func NewRefusal(retryAfterSec int, via string) *Refusal {
	return &Refusal{retryAfterSec: retryAfterSec, via: via}
}

// Bytes returns the serialized head, valid until the next call.
func (r *Refusal) Bytes() []byte {
	if d := DateString(); d != r.date {
		r.date = d
		r.head = AppendRefusal(r.head[:0], r.retryAfterSec, r.via)
	}
	return r.head
}
