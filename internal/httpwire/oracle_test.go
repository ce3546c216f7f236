package httpwire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"testing"
)

// The parsers are held to two oracles rather than to examples: their own
// output on the same bytes cut differently (fragmentation invariance —
// what exercises the spill into the parser's own buffer), and net/http's
// verdict on the same bytes (differential). Both are fuzz targets;
// `make fuzz` runs each for 30 s, `go test` runs the seed corpus.

// requestCorpus and responseCorpus seed both oracles.
var requestCorpus = []string{
	"GET / HTTP/1.1\r\n\r\n",
	"GET /obj/1 HTTP/1.1\r\nHost: a\r\nConnection: close\r\n\r\n",
	"GET /obj/1 HTTP/1.1\r\nHost: bench\r\n\r\nGET /obj/22 HTTP/1.1\r\nHost: bench\r\n\r\n",
	"POST /f HTTP/1.0\r\nContent-Length: 4\r\n\r\nbodyGET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
	"POST /f HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nbody",
	"POST /f HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 5\r\n\r\nbody!",
	"POST /f HTTP/1.1\r\nContent-Length: +4\r\n\r\nbody",
	"POST /f HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nbody\r\n0\r\n\r\n",
	"POST /f HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: 4\r\n\r\nbody",
	"\r\n\r\nGET / HTTP/1.1\r\n\r\n",
	"GET / HTTP/1.1\nHost: bare-lf\n\n",
	"GET / HTTP/1.1\r\nA: 1\r\nB: 2\r\nC: 3\r\nD: 4\r\nE: 5\r\nF: 6\r\nG: 7\r\nH: 8\r\nI: 9\r\nJ: 10\r\n\r\n",
	"OPTIONS * HTTP/1.1\r\nHost: a\r\n\r\n",
	"GET / HTTP/2.0\r\n\r\n",
	"GET http://a/ HTTP/1.1\r\n\r\n",
	"GET / HTTP/1.1\r\nNo colon here\r\n\r\n",
	"GET / HTTP/1.1\r\nX: " + strings.Repeat("a", 100) + "\r\n\r\n",
	"\x00\xff\n\n",
}

var responseCorpus = []string{
	"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabc",
	"HTTP/1.1 200 OK\r\nServer: nio-go/1.0\r\nDate: Mon, 02 Jan 2006 15:04:05 GMT\r\nContent-Type: application/octet-stream\r\nContent-Length: 5\r\nConnection: keep-alive\r\n\r\nhelloHTTP/1.1 404 Not Found\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
	"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n10\r\n0123456789abcdef\r\n0\r\n\r\n",
	"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3;ext=1\r\nabc\r\n0\r\nTrailer: x\r\n\r\n",
	"HTTP/1.0 204 No Content\r\n\r\n",
	"HTTP/1.1 304 Not Modified\r\nETag: \"x\"\r\nContent-Length: 10\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\nx",
	"HTTP/1.1 500 Oops\r\nConnection: close\r\n\r\nread to eof",
	"HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 2\r\n\r\nok",
	"\r\nHTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n",
	"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabcd",
	"HTTP/1.1 2000 OK\r\nContent-Length: 0\r\n\r\n",
	"HTTP/1.1 304 Not Modified\r\nTransfer-Encoding: chunked\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\nx",
	"\x00\r\n",
}

// ---------------------------------------------------------------------
// Fragmentation invariance
// ---------------------------------------------------------------------

// pieces cuts data at the given piece lengths (each at least 1); what is
// left after the last cut is the final piece.
func pieces(data []byte, cuts []byte) [][]byte {
	var out [][]byte
	for _, c := range cuts {
		n := 1 + int(c)
		if n >= len(data) {
			break
		}
		out = append(out, data[:n])
		data = data[n:]
	}
	return append(out, data)
}

func eachByte(data []byte) [][]byte {
	out := make([][]byte, 0, len(data))
	for i := range data {
		out = append(out, data[i:i+1])
	}
	return out
}

func showRequest(r *Request) string {
	return fmt.Sprintf("%q %q %q %q keepalive=%v", r.Method, r.Path, r.Proto, r.Headers, r.KeepAlive)
}

func showResponse(r *Response) string {
	if r == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%q %d %q cl=%d body=%d keepalive=%v chunked=%v",
		r.Proto, r.StatusCode, r.Headers, r.ContentLength, r.BodyBytes, r.KeepAlive, r.Chunked)
}

// requestOutcome is everything observable about feeding a stream piece
// by piece up to its first error: messages, error text, Pending, Parsed.
func requestOutcome(ps [][]byte) string {
	var p Parser
	var reqs []*Request
	var err error
	for _, piece := range ps {
		if reqs, err = p.Feed(reqs, piece); err != nil {
			break
		}
	}
	var b strings.Builder
	for _, r := range reqs {
		b.WriteString(showRequest(r) + "\n")
	}
	if err != nil {
		// Pending is not defined after an error (the stream is dead).
		fmt.Fprintf(&b, "error %v parsed=%d", err, p.Parsed())
	} else {
		fmt.Fprintf(&b, "pending=%v parsed=%d", p.Pending(), p.Parsed())
	}
	return b.String()
}

// responseOutcome is requestOutcome for the response parser, down to the
// framing state it stopped in.
func responseOutcome(ps [][]byte) string {
	var p RespParser
	var resps []*Response
	var err error
	for _, piece := range ps {
		if resps, err = p.Feed(resps, piece); err != nil {
			break
		}
	}
	var b strings.Builder
	for _, r := range resps {
		b.WriteString(showResponse(r) + "\n")
	}
	if err != nil {
		fmt.Fprintf(&b, "error %v parsed=%d", err, p.Parsed())
	} else {
		fmt.Fprintf(&b, "state=%d left=%d buffered=%v cur=%s parsed=%d",
			p.state, p.bodyLeft, len(p.scan.buf) > 0, showResponse(p.cur), p.Parsed())
	}
	return b.String()
}

func FuzzRequestFragmentation(f *testing.F) {
	for _, s := range requestCorpus {
		f.Add([]byte(s), []byte{0, 3, 7, 1})
		f.Add([]byte(s), []byte{15, 15, 15})
	}
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		whole := requestOutcome([][]byte{data})
		if got := requestOutcome(eachByte(data)); got != whole {
			t.Fatalf("byte by byte differs from whole for %q:\n%s\n-- whole:\n%s", data, got, whole)
		}
		if got := requestOutcome(pieces(data, cuts)); got != whole {
			t.Fatalf("cuts %v differ from whole for %q:\n%s\n-- whole:\n%s", cuts, data, got, whole)
		}
	})
}

func FuzzResponseFragmentation(f *testing.F) {
	for _, s := range responseCorpus {
		f.Add([]byte(s), []byte{0, 3, 7, 1})
		f.Add([]byte(s), []byte{15, 15, 15})
	}
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		whole := responseOutcome([][]byte{data})
		if got := responseOutcome(eachByte(data)); got != whole {
			t.Fatalf("byte by byte differs from whole for %q:\n%s\n-- whole:\n%s", data, got, whole)
		}
		if got := responseOutcome(pieces(data, cuts)); got != whole {
			t.Fatalf("cuts %v differ from whole for %q:\n%s\n-- whole:\n%s", cuts, data, got, whole)
		}
	})
}

// ---------------------------------------------------------------------
// Differential against net/http
// ---------------------------------------------------------------------

// isToken reports whether s is an RFC 9110 token, which is what net/http
// demands of methods and header names and this package does not.
func isToken(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c <= ' ' || c >= 0x7f || strings.IndexByte("\"(),/:;<=>?@[\\]{}", c) >= 0 {
			return false
		}
	}
	return true
}

// outsideCommonGrammar names why a stream is not compared at all, or ""
// if it is. These are the inputs on which the two parsers differ by
// design, decided from the bytes alone:
func outsideCommonGrammar(data []byte) string {
	for i, line := range bytes.Split(data, []byte("\n")) {
		switch {
		case len(line) > 0 && (line[0] == ' ' || line[0] == '\t'):
			// net/http joins such a line to the header before it (obs-fold,
			// RFC 9112 §5.2); httpwire reads it as a header of its own or
			// refuses it.
			return "folded header line"
		case i == 0 && len(bytes.TrimRight(line, "\r")) == 0:
			// httpwire tolerates blank lines before a start line (RFC 9112
			// §2.2); net/http's ReadRequest/ReadResponse do not.
			return "leading blank line"
		case len(line) > 1024:
			// Line and head limits differ (8 KiB a line and 64 fields here;
			// 1 MiB a head there), and bufio's 4 KiB window changes where
			// net/http reports an over-long line.
			return "long line"
		case bytes.IndexByte(line, '\r') >= 0 && bytes.IndexByte(line, '\r') != len(line)-1:
			// A CR that does not end the line: net/http refuses it inside
			// a header, httpwire keeps it as a value byte.
			return "bare CR"
		}
	}
	if bytes.Count(data, []byte("\n")) > 48 {
		return "many lines"
	}
	return ""
}

// theirRequest is net/http's verdict on the next request of a stream.
type verdict int

const (
	incomplete verdict = iota // ran out of bytes: no verdict
	accept
	reject
)

func classify(err error) verdict {
	switch {
	case err == nil:
		return accept
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
		return incomplete
	}
	return reject
}

// lenientRequest names why net/http may refuse a request httpwire took,
// or "". httpwire is a static server's parser: it splits a head into
// fields and leaves the fields' inner grammar to whoever reads them.
func lenientRequest(r *Request) string {
	if !isToken(r.Method) {
		return "method is not a token"
	}
	if r.Path != "*" {
		if _, err := url.ParseRequestURI(r.Path); err != nil {
			return "target net/url refuses"
		}
	}
	hosts := 0
	for _, h := range r.Headers {
		if equalFold(h.Name, "Host") {
			hosts++
		}
	}
	if hosts > 1 {
		return "more than one Host"
	}
	return lenientFields(r.Headers)
}

// lenientFields names the field grammar net/http checks and httpwire
// does not, if hs breaks it.
func lenientFields(hs []Header) string {
	for _, h := range hs {
		if !isToken(h.Name) {
			return "header name is not a token"
		}
		for i := 0; i < len(h.Value); i++ {
			if c := h.Value[i]; c < ' ' && c != '\t' || c == 0x7f {
				return "control byte in a header value"
			}
		}
	}
	return ""
}

// strictRequest names why httpwire may refuse a request net/http took,
// or "": limits and scope, each a ParseError text.
func strictRequest(err error, theirs *http.Request) string {
	msg := err.Error()
	switch {
	case strings.Contains(msg, "unsupported protocol"):
		return "only HTTP/1.0 and HTTP/1.1 are served"
	case strings.Contains(msg, "bad request target"):
		return "only origin-form targets and * are served"
	case strings.Contains(msg, "Transfer-Encoding"):
		return "request bodies are framed by Content-Length only"
	case strings.Contains(msg, "bad Content-Length") && theirs.ContentLength > MaxBodyBytes:
		return "request bodies are bounded"
	}
	return ""
}

// connectionIsList reports a Connection field whose value is a list, or
// that occurs twice: net/http looks for the close/keep-alive token in
// the list, httpwire compares the first field's whole value. Our own
// peers send a single token.
func connectionIsList(hs []Header) bool {
	n := 0
	for _, h := range hs {
		if equalFold(h.Name, "Connection") {
			n++
			if strings.ContainsAny(h.Value, ", \t") {
				return true
			}
		}
	}
	return n > 1
}

func contentLengthOf(hs []Header) int64 {
	for _, h := range hs {
		if equalFold(h.Name, "Content-Length") {
			n, _ := strconv.ParseInt(h.Value, 10, 64)
			return n
		}
	}
	return 0
}

func FuzzRequestDifferential(f *testing.F) {
	for _, s := range requestCorpus {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if outsideCommonGrammar(data) != "" {
			return
		}
		var p Parser
		ours, ourErr := p.Feed(nil, data)
		br := bufio.NewReader(bytes.NewReader(data))
		for i := 0; ; i++ {
			theirs, err := http.ReadRequest(br)
			v := classify(err)
			switch {
			case i < len(ours) && v == accept:
				r := ours[i]
				if lenientRequest(r) != "" {
					return // they took it, but not as the same request
				}
				if r.Method != theirs.Method || r.Path != theirs.RequestURI || r.Proto != theirs.Proto {
					t.Fatalf("request %d of %q: start line %q %q %q, net/http %q %q %q",
						i, data, r.Method, r.Path, r.Proto, theirs.Method, theirs.RequestURI, theirs.Proto)
				}
				if cl := contentLengthOf(r.Headers); cl != theirs.ContentLength {
					t.Fatalf("request %d of %q: body length %d, net/http %d", i, data, cl, theirs.ContentLength)
				}
				if !connectionIsList(r.Headers) && r.KeepAlive == theirs.Close {
					t.Fatalf("request %d of %q: keep-alive %v, net/http close %v", i, data, r.KeepAlive, theirs.Close)
				}
				if _, err := io.Copy(io.Discard, theirs.Body); err != nil {
					return // body cut short: nothing after it to compare
				}
			case i < len(ours) && v == reject:
				if why := lenientRequest(ours[i]); why == "" {
					t.Fatalf("request %d of %q accepted as %s, net/http refuses it: %v", i, data, showRequest(ours[i]), err)
				}
				return
			case i < len(ours): // they are still waiting for bytes
				if why := lenientRequest(ours[i]); why == "" {
					t.Fatalf("request %d of %q accepted as %s, net/http wants more bytes: %v", i, data, showRequest(ours[i]), err)
				}
				return
			case ourErr != nil: // request i is the one we refuse
				if v == accept && strictRequest(ourErr, theirs) == "" {
					t.Fatalf("request %d of %q refused (%v), net/http accepts it", i, data, ourErr)
				}
				return
			default: // we are waiting for bytes
				if v == accept {
					t.Fatalf("request %d of %q is incomplete here, net/http accepts it", i, data)
				}
				return
			}
		}
	})
}

// lenientResponse names why net/http may refuse, or frame differently, a
// response httpwire took, or "". The response parser serves the load
// generator and the proxy's relay, whose peers are this repo's servers;
// where a reply's framing fields are malformed it falls back (to "no
// length": read to EOF, never reuse) instead of refusing.
func lenientResponse(r *Response, head []byte) string {
	if why := lenientFields(r.Headers); why != "" {
		return why
	}
	cls, tes := 0, 0
	for _, h := range r.Headers {
		switch {
		case equalFold(h.Name, "Content-Length"):
			cls++
			if _, ok := parseLength([]byte(h.Value), 1<<62); !ok {
				return "Content-Length that is not a number is ignored"
			}
		case equalFold(h.Name, "Transfer-Encoding"):
			tes++
			if !equalFold(h.Value, "chunked") {
				return "a transfer coding other than chunked is ignored"
			}
		}
	}
	switch {
	case cls > 1:
		return "repeated Content-Length: the first one counts"
	case tes > 1:
		return "repeated Transfer-Encoding: the first one counts"
	case tes == 1 && r.Proto == proto10:
		return "chunked from an HTTP/1.0 peer is decoded"
	}
	// The status line: three digits are read, what follows them is not.
	line, _, _ := bytes.Cut(head, []byte("\n"))
	_, rest, _ := bytes.Cut(line, []byte(" "))
	if code, _, _ := bytes.Cut(trimCR(rest), []byte(" ")); len(code) != 3 {
		return "status code runs on past three digits"
	}
	return ""
}

// strictResponse names why httpwire may refuse a response whose head
// net/http took, or "".
func strictResponse(err error) string {
	msg := err.Error()
	switch {
	case strings.Contains(msg, "unsupported protocol"):
		return "only HTTP/1.0 and HTTP/1.1 peers are spoken to"
	case strings.Contains(msg, "bad status code"):
		return "a status code is 100 to 599"
	case strings.Contains(msg, "chunk"):
		return "the refused line is in the body, which ReadResponse has not read"
	}
	return ""
}

func FuzzResponseDifferential(f *testing.F) {
	for _, s := range responseCorpus {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if outsideCommonGrammar(data) != "" {
			return
		}
		if bytes.Contains(bytes.ToLower(data), []byte("chunked")) && bytes.Contains(data, []byte(";")) {
			return // chunk extensions: ignored here whatever they hold, validated there
		}
		var p RespParser
		ours, ourErr := p.Feed(nil, data)
		if p.cur != nil && ourErr == nil {
			ours = append(ours, p.cur) // head complete, body still being framed
		}
		rd := bytes.NewReader(data)
		br := bufio.NewReader(rd)
		for i := 0; ; i++ {
			at := len(data) - rd.Len() - br.Buffered() // where response i starts
			theirs, err := http.ReadResponse(br, nil)
			v := classify(err)
			if i >= len(ours) {
				// Response i is the one we refuse, or are waiting for.
				if v == accept && ourErr == nil {
					t.Fatalf("response %d of %q is incomplete here, net/http accepts its head", i, data)
				}
				if v == accept && strictResponse(ourErr) == "" {
					t.Fatalf("response %d of %q refused (%v), net/http accepts it", i, data, ourErr)
				}
				return
			}
			r := ours[i]
			if why := lenientResponse(r, data[at:]); why != "" {
				return
			}
			if v != accept {
				t.Fatalf("response %d of %q accepted as %s, net/http says %v", i, data, showResponse(r), err)
			}
			if r.StatusCode != theirs.StatusCode || r.Proto != theirs.Proto {
				t.Fatalf("response %d of %q: %q %d, net/http %q %d", i, data, r.Proto, r.StatusCode, theirs.Proto, theirs.StatusCode)
			}
			n, berr := io.Copy(io.Discard, theirs.Body)
			complete := i < len(ours)-1 || p.cur == nil
			switch {
			case complete && berr != nil:
				t.Fatalf("response %d of %q framed complete at %d body bytes, net/http: %v after %d", i, data, r.BodyBytes, berr, n)
			case !complete && berr == nil && p.bodyLeft >= 0:
				if ourErr != nil {
					return // we refused something in the body (a chunk line)
				}
				t.Fatalf("response %d of %q still wants %d body bytes, net/http is done after %d", i, data, p.bodyLeft, n)
			case berr != nil:
				return // both are waiting for the rest of the body, or they refuse a chunk
			}
			if r.BodyBytes != n {
				t.Fatalf("response %d of %q: %d body bytes, net/http %d", i, data, r.BodyBytes, n)
			}
			if !complete {
				return // a body that runs to EOF is the last thing on the stream
			}
			if !connectionIsList(r.Headers) && r.KeepAlive == theirs.Close {
				t.Fatalf("response %d of %q: keep-alive %v, net/http close %v", i, data, r.KeepAlive, theirs.Close)
			}
		}
	})
}

// ---------------------------------------------------------------------
// Smuggling table, ownership, buffer bound, allocations
// ---------------------------------------------------------------------

// TestRequestFramingAmbiguityRefused pins the two desync vectors ROADMAP
// item 4 listed: a request may not announce a transfer coding (its body
// would parse as the next request, and the proxy strips the field), and
// two Content-Length fields must agree.
func TestRequestFramingAmbiguityRefused(t *testing.T) {
	cases := []struct {
		name, wire string
		wantErr    string // "" = accepted
		wantReqs   int
	}{
		{"chunked", "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n", "Transfer-Encoding", 0},
		{"chunked, any case", "POST / HTTP/1.1\r\ntransfer-ENCODING: chunked\r\n\r\n", "Transfer-Encoding", 0},
		{"identity coding", "GET / HTTP/1.1\r\nTransfer-Encoding: identity\r\n\r\n", "Transfer-Encoding", 0},
		{"coding and length", "POST / HTTP/1.1\r\nContent-Length: 3\r\nTransfer-Encoding: chunked\r\n\r\nabc", "Transfer-Encoding", 0},
		{"coding after a good request", "GET / HTTP/1.1\r\n\r\nPOST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", "Transfer-Encoding", 1},
		{"lengths differ", "POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabcd", "conflicting Content-Length", 0},
		{"lengths differ in spelling", "POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 03\r\n\r\nabc", "conflicting Content-Length", 0},
		{"lengths differ, third field", "POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\nContent-Length: 0\r\n\r\nabc", "conflicting Content-Length", 0},
		{"lengths agree", "POST / HTTP/1.1\r\nContent-Length: 3\r\ncontent-length:  3 \r\n\r\nabcGET / HTTP/1.1\r\n\r\n", "", 2},
		{"signed length", "POST / HTTP/1.1\r\nContent-Length: +3\r\n\r\nabc", "bad Content-Length", 0},
		{"empty length", "POST / HTTP/1.1\r\nContent-Length:\r\n\r\n", "bad Content-Length", 0},
		{"list of lengths", "POST / HTTP/1.1\r\nContent-Length: 3, 3\r\n\r\nabc", "bad Content-Length", 0},
	}
	for _, tc := range cases {
		for _, how := range []string{"whole", "byte by byte"} {
			ps := [][]byte{[]byte(tc.wire)}
			if how == "byte by byte" {
				ps = eachByte([]byte(tc.wire))
			}
			var p Parser
			var reqs []*Request
			var err error
			for _, piece := range ps {
				if reqs, err = p.Feed(reqs, piece); err != nil {
					break
				}
			}
			var pe *ParseError
			switch {
			case tc.wantErr == "" && err != nil:
				t.Errorf("%s (%s): refused: %v", tc.name, how, err)
			case tc.wantErr != "" && (!errors.As(err, &pe) || !strings.Contains(pe.Reason, tc.wantErr)):
				t.Errorf("%s (%s): err = %v, want a ParseError about %q", tc.name, how, err, tc.wantErr)
			case len(reqs) != tc.wantReqs:
				t.Errorf("%s (%s): %d requests, want %d", tc.name, how, len(reqs), tc.wantReqs)
			}
		}
	}
}

// TestMessagesOwnTheirMemory guards the rule both event loops rely on:
// they read every connection into one buffer, so nothing Feed returned
// may alias it — not when the head was scanned in place, and not when it
// was completed in the parser's own buffer.
func TestMessagesOwnTheirMemory(t *testing.T) {
	scribble := func(b []byte) {
		for i := range b {
			b[i] = 'X'
		}
	}
	reqWire := "GET /obj/7 HTTP/1.1\r\nHost: bench\r\nA: 1\r\nB: 2\r\nC: 3\r\nD: 4\r\nE: 5\r\nF: 6\r\nG: 7\r\nH: 8\r\nI: 9\r\n\r\n"
	respWire := "HTTP/1.1 200 OK\r\nServer: nio-go/1.0\r\nContent-Length: 3\r\nConnection: keep-alive\r\n\r\nabc"
	for _, cut := range []int{0, 9, 30} { // in place; spilled mid request line; spilled mid headers
		var p Parser
		var rp RespParser
		var reqs []*Request
		var resps []*Response
		var wantReq, wantResp []string
		buf := make([]byte, 256)
		feed := func(wire string) {
			t.Helper()
			for _, piece := range []string{wire[:cut], wire[cut:]} {
				n := copy(buf, piece)
				var err error
				if strings.HasPrefix(wire, "HTTP/") {
					resps, err = rp.Feed(resps, buf[:n])
				} else {
					reqs, err = p.Feed(reqs, buf[:n])
				}
				if err != nil {
					t.Fatalf("cut %d: %v", cut, err)
				}
				scribble(buf)
			}
		}
		for round := 0; round < 3; round++ {
			feed(reqWire)
			feed(respWire)
			wantReq = append(wantReq, showRequest(reqs[len(reqs)-1]))
			wantResp = append(wantResp, showResponse(resps[len(resps)-1]))
		}
		if len(reqs) != 3 || len(resps) != 3 {
			t.Fatalf("cut %d: %d requests, %d responses, want 3 and 3", cut, len(reqs), len(resps))
		}
		for i := range reqs {
			if got := showRequest(reqs[i]); got != wantReq[i] || got != wantReq[0] {
				t.Errorf("cut %d: request %d changed after later Feeds: %s", cut, i, got)
			}
			if got := showResponse(resps[i]); got != wantResp[i] || got != wantResp[0] {
				t.Errorf("cut %d: response %d changed after later Feeds: %s", cut, i, got)
			}
		}
		if strings.Contains(wantReq[0], "X") || reqs[0].Path != "/obj/7" || len(reqs[0].Headers) != 10 {
			t.Errorf("cut %d: request read from scribbled memory: %s", cut, wantReq[0])
		}
	}
}

// TestBodiesAreFramedNotBuffered: the response parser counts body bytes
// where they are. A 1 MiB body and a chunked one, fed in 16 KiB pieces
// (so that heads, chunk-size lines and chunk data all get cut), leave
// its own buffer no larger than one line's bound.
func TestBodiesAreFramedNotBuffered(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789abcdef"), 1<<16) // 1 MiB
	var wire []byte
	wire = append(wire, "HTTP/1.1 200 OK\r\nContent-Length: 1048576\r\n\r\n"...)
	wire = append(wire, body...)
	wire = append(wire, "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"...)
	for off := 0; off < len(body); off += 5000 {
		end := min(off+5000, len(body))
		wire = append(wire, strconv.FormatInt(int64(end-off), 16)...)
		wire = append(wire, "\r\n"...)
		wire = append(wire, body[off:end]...)
		wire = append(wire, "\r\n"...)
	}
	wire = append(wire, "0\r\n\r\n"...)

	var p RespParser
	var resps []*Response
	for off := 0; off < len(wire); off += 16 << 10 {
		var err error
		if resps, err = p.Feed(resps, wire[off:min(off+16<<10, len(wire))]); err != nil {
			t.Fatal(err)
		}
		if c := cap(p.scan.buf); c > MaxLineBytes {
			t.Fatalf("after %d bytes the parser's buffer holds %d", off, c)
		}
	}
	if len(resps) != 2 || resps[0].BodyBytes != 1<<20 || resps[1].BodyBytes != 1<<20 || !resps[1].Chunked {
		t.Fatalf("framing: %d responses: %v", len(resps), resps)
	}

	// The request parser skips bodies the same way.
	var rq Parser
	reqWire := append([]byte("POST /f HTTP/1.1\r\nContent-Length: 1048576\r\n\r\n"), body...)
	reqWire = append(reqWire, "GET / HTTP/1.1\r\n\r\n"...)
	var reqs []*Request
	for off := 0; off < len(reqWire); off += 16 << 10 {
		var err error
		if reqs, err = rq.Feed(reqs, reqWire[off:min(off+16<<10, len(reqWire))]); err != nil {
			t.Fatal(err)
		}
		if c := cap(rq.scan.buf); c > MaxLineBytes {
			t.Fatalf("after %d bytes the request parser's buffer holds %d", off, c)
		}
	}
	if len(reqs) != 2 || rq.Pending() {
		t.Fatalf("request framing: %d requests, pending %v", len(reqs), rq.Pending())
	}
}

// TestFeedAllocations pins the cost the relay path was rebuilt for: a
// steady-state Feed of the message shapes bench sends allocates the head
// string and the message struct, nothing else.
func TestFeedAllocations(t *testing.T) {
	request := []byte("GET /obj/1234 HTTP/1.1\r\nHost: bench\r\n\r\n")
	forwarded := []byte("GET /obj/1234 HTTP/1.1\r\nHost: bench\r\nVia: 1.1 nioproxy\r\nX-Forwarded-For: 127.0.0.1\r\n\r\n")
	reply := AppendResponseHeader(nil, 200, "application/octet-stream", 1024, true)
	reply = append(reply, make([]byte, 1024)...)
	var batch []byte
	for i := 0; i < 8; i++ {
		batch = append(batch, request...)
	}

	var p Parser
	var reqs []*Request
	for _, tc := range []struct {
		name string
		wire []byte
		msgs int
	}{{"request", request, 1}, {"forwarded request", forwarded, 1}, {"batch of 8", batch, 8}} {
		got := testing.AllocsPerRun(200, func() {
			reqs, _ = p.Feed(reqs[:0], tc.wire)
		})
		if len(reqs) != tc.msgs || got > float64(2*tc.msgs) {
			t.Errorf("%s: %d messages, %.1f allocations per Feed, want at most %d", tc.name, len(reqs), got, 2*tc.msgs)
		}
	}
	var rp RespParser
	var resps []*Response
	got := testing.AllocsPerRun(200, func() {
		resps, _ = rp.Feed(resps[:0], reply)
	})
	if len(resps) != 1 || got > 2 {
		t.Errorf("reply: %d messages, %.1f allocations per Feed, want at most 2", len(resps), got)
	}
}
