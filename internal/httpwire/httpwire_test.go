package httpwire

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func feedAll(t *testing.T, p *Parser, s string) []*Request {
	t.Helper()
	reqs, err := p.Feed(nil, []byte(s))
	if err != nil {
		t.Fatalf("Feed(%q): %v", s, err)
	}
	return reqs
}

func TestParseSimpleGet(t *testing.T) {
	var p Parser
	reqs := feedAll(t, &p, "GET /obj/1 HTTP/1.1\r\nHost: sut\r\n\r\n")
	if len(reqs) != 1 {
		t.Fatalf("got %d requests", len(reqs))
	}
	r := reqs[0]
	if r.Method != "GET" || r.Path != "/obj/1" || r.Proto != "HTTP/1.1" {
		t.Fatalf("parsed %+v", r)
	}
	if !r.KeepAlive {
		t.Fatal("HTTP/1.1 should default to keep-alive")
	}
	if host, ok := r.Get("host"); !ok || host != "sut" {
		t.Fatalf("Get(host) = %q, %v", host, ok)
	}
}

func TestParseFragmented(t *testing.T) {
	var p Parser
	var reqs []*Request
	var err error
	for _, frag := range []string{"GE", "T /a", "b HTTP/1.", "1\r\nX: ", "1\r\n", "\r", "\n"} {
		reqs, err = p.Feed(reqs, []byte(frag))
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(reqs) != 1 || reqs[0].Path != "/ab" {
		t.Fatalf("fragmented parse got %+v", reqs)
	}
}

func TestParsePipelined(t *testing.T) {
	var p Parser
	wire := "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\nGET /c HTTP/1.1\r\n\r\n"
	reqs := feedAll(t, &p, wire)
	if len(reqs) != 3 {
		t.Fatalf("got %d requests, want 3", len(reqs))
	}
	for i, want := range []string{"/a", "/b", "/c"} {
		if reqs[i].Path != want {
			t.Fatalf("request %d path %q, want %q", i, reqs[i].Path, want)
		}
	}
	if p.Parsed() != 3 {
		t.Fatalf("Parsed() = %d", p.Parsed())
	}
}

func TestKeepAliveRules(t *testing.T) {
	cases := []struct {
		wire string
		want bool
	}{
		{"GET / HTTP/1.1\r\n\r\n", true},
		{"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", false},
		{"GET / HTTP/1.1\r\nConnection: CLOSE\r\n\r\n", false},
		{"GET / HTTP/1.0\r\n\r\n", false},
		{"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", true},
		{"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n", true},
	}
	for _, c := range cases {
		var p Parser
		reqs := feedAll(t, &p, c.wire)
		if len(reqs) != 1 {
			t.Fatalf("%q: %d requests", c.wire, len(reqs))
		}
		if reqs[0].KeepAlive != c.want {
			t.Errorf("%q: keepalive = %v, want %v", c.wire, reqs[0].KeepAlive, c.want)
		}
	}
}

func TestBareLFAccepted(t *testing.T) {
	var p Parser
	reqs := feedAll(t, &p, "GET /x HTTP/1.1\nA: b\n\n")
	if len(reqs) != 1 || reqs[0].Path != "/x" {
		t.Fatalf("bare-LF parse failed: %+v", reqs)
	}
}

func TestLeadingBlankLinesTolerated(t *testing.T) {
	var p Parser
	reqs := feedAll(t, &p, "\r\n\r\nGET /x HTTP/1.1\r\n\r\n")
	if len(reqs) != 1 {
		t.Fatalf("got %d requests", len(reqs))
	}
}

func TestContentLengthBodySkipped(t *testing.T) {
	var p Parser
	wire := "POST /form HTTP/1.1\r\nContent-Length: 5\r\n\r\nhelloGET /next HTTP/1.1\r\n\r\n"
	reqs := feedAll(t, &p, wire)
	if len(reqs) != 2 {
		t.Fatalf("got %d requests, want 2", len(reqs))
	}
	if reqs[1].Path != "/next" {
		t.Fatalf("second request %+v", reqs[1])
	}
}

func TestBodySplitAcrossFeeds(t *testing.T) {
	var p Parser
	reqs := feedAll(t, &p, "POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\n12345")
	if len(reqs) != 1 {
		t.Fatalf("header not parsed")
	}
	reqs, err := p.Feed(nil, []byte("67890GET /after HTTP/1.1\r\n\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 1 || reqs[0].Path != "/after" {
		t.Fatalf("request after split body: %+v", reqs)
	}
}

func TestMalformedInputs(t *testing.T) {
	bad := []string{
		"GARBAGE\r\n\r\n",
		"GET /x HTTP/2.0\r\n\r\n",
		"GET noslash HTTP/1.1\r\n\r\n",
		"GET /x HTTP/1.1\r\nNoColonHere\r\n\r\n",
		"GET /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
		"GET /x HTTP/1.1\r\nContent-Length: -4\r\n\r\n",
		"GET /x HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n",
	}
	for _, wire := range bad {
		var p Parser
		if _, err := p.Feed(nil, []byte(wire)); err == nil {
			t.Errorf("accepted malformed input %q", wire)
		} else if _, ok := err.(*ParseError); !ok {
			t.Errorf("error for %q is %T, want *ParseError", wire, err)
		}
	}
}

func TestOversizedLineRejected(t *testing.T) {
	var p Parser
	_, err := p.Feed(nil, []byte("GET /"+strings.Repeat("a", MaxLineBytes+10)))
	if err == nil {
		t.Fatal("oversized request line accepted")
	}
}

func TestTooManyHeadersRejected(t *testing.T) {
	var b strings.Builder
	b.WriteString("GET / HTTP/1.1\r\n")
	for i := 0; i <= MaxHeaderCount; i++ {
		b.WriteString("X: y\r\n")
	}
	b.WriteString("\r\n")
	var p Parser
	if _, err := p.Feed(nil, []byte(b.String())); err == nil {
		t.Fatal("header flood accepted")
	}
}

func TestReset(t *testing.T) {
	var p Parser
	if _, err := p.Feed(nil, []byte("GET /partial HTT")); err != nil {
		t.Fatal(err)
	}
	p.Reset()
	reqs := feedAll(t, &p, "GET /fresh HTTP/1.1\r\n\r\n")
	if len(reqs) != 1 || reqs[0].Path != "/fresh" {
		t.Fatalf("reset parser state leaked: %+v", reqs)
	}
}

func TestHeaderWhitespaceTrimmed(t *testing.T) {
	var p Parser
	reqs := feedAll(t, &p, "GET / HTTP/1.1\r\nX:   padded value \t\r\n\r\n")
	v, _ := reqs[0].Get("x")
	if v != "padded value" {
		t.Fatalf("header value %q", v)
	}
}

func TestAppendResponseHeader(t *testing.T) {
	RefreshDate(time.Date(2004, 4, 26, 12, 0, 0, 0, time.UTC))
	h := string(AppendResponseHeader(nil, 200, "text/html", 1234, true))
	for _, want := range []string{
		"HTTP/1.1 200 OK\r\n",
		"Content-Length: 1234\r\n",
		"Content-Type: text/html\r\n",
		"Connection: keep-alive\r\n\r\n",
		"Date: Mon, 26 Apr 2004 12:00:00 GMT",
	} {
		if !strings.Contains(h, want) {
			t.Errorf("header missing %q:\n%s", want, h)
		}
	}
	h = string(AppendResponseHeader(nil, 404, "", 0, false))
	if !strings.Contains(h, "404 Not Found") || !strings.Contains(h, "Connection: close") {
		t.Errorf("404 header wrong:\n%s", h)
	}
	if !strings.Contains(h, "application/octet-stream") {
		t.Errorf("default content type missing:\n%s", h)
	}
}

func TestStatusText(t *testing.T) {
	for _, code := range []int{200, 400, 404, 408, 500, 501, 503, 299} {
		if StatusText(code) == "" {
			t.Errorf("empty status text for %d", code)
		}
	}
}

func TestDateStringStable(t *testing.T) {
	a := DateString()
	b := DateString()
	if a != b || a == "" {
		t.Fatalf("date cache unstable: %q vs %q", a, b)
	}
	if !strings.HasSuffix(a, "GMT") {
		t.Fatalf("date %q does not end in GMT", a)
	}
}

// Property: a valid request stream parses identically regardless of how
// it is fragmented into Feed calls.
func TestQuickFragmentationInvariance(t *testing.T) {
	wire := []byte("GET /obj/1 HTTP/1.1\r\nHost: a\r\n\r\nGET /obj/22 HTTP/1.1\r\nHost: b\r\nConnection: close\r\n\r\n")
	var want []*Request
	{
		var p Parser
		var err error
		want, err = p.Feed(nil, wire)
		if err != nil || len(want) != 2 {
			t.Fatalf("baseline parse failed: %v %d", err, len(want))
		}
	}
	f := func(cuts []uint8) bool {
		var p Parser
		var got []*Request
		var err error
		prev := 0
		for _, c := range cuts {
			at := prev + int(c)%(len(wire)-prev)
			if at <= prev {
				continue
			}
			got, err = p.Feed(got, wire[prev:at])
			if err != nil {
				return false
			}
			prev = at
		}
		got, err = p.Feed(got, wire[prev:])
		if err != nil || len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].Path != want[i].Path || got[i].KeepAlive != want[i].KeepAlive {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the parser never panics on arbitrary bytes; it either parses
// or returns a ParseError.
func TestQuickNoPanicOnGarbage(t *testing.T) {
	f := func(data []byte) bool {
		var p Parser
		_, _ = p.Feed(nil, data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkParseRequest(b *testing.B) {
	wire := []byte("GET /obj/123 HTTP/1.1\r\nHost: sut\r\nUser-Agent: httperf/0.8\r\nAccept: */*\r\n\r\n")
	var p Parser
	reqs := make([]*Request, 0, 1)
	b.SetBytes(int64(len(wire)))
	for i := 0; i < b.N; i++ {
		var err error
		reqs, err = p.Feed(reqs[:0], wire)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendResponseHeader(b *testing.B) {
	buf := make([]byte, 0, 256)
	for i := 0; i < b.N; i++ {
		buf = AppendResponseHeader(buf[:0], 200, "text/plain", 4096, true)
	}
}

// AppendResponseHeaderExtra must emit the extra fields where a client
// parser finds them, and leave framing (Content-Length, Connection)
// intact — the shed-503 shape both servers put on the wire.
func TestAppendResponseHeaderExtra(t *testing.T) {
	wire := AppendResponseHeaderExtra(nil, 503, "text/plain", 0, false,
		Header{Name: "Retry-After", Value: "2"})
	var p RespParser
	resps, err := p.Feed(nil, wire)
	if err != nil || len(resps) != 1 {
		t.Fatalf("Feed = (%d resps, %v), want one clean response\n%q", len(resps), err, wire)
	}
	resp := resps[0]
	if resp.StatusCode != 503 {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if v, ok := resp.Get("Retry-After"); !ok || v != "2" {
		t.Fatalf("Retry-After = %q (present=%v), want \"2\"", v, ok)
	}
	if resp.KeepAlive {
		t.Fatal("shed response parsed as keep-alive; want Connection: close")
	}
	if resp.ContentLength != 0 {
		t.Fatalf("ContentLength = %d, want 0", resp.ContentLength)
	}
	// No extras degenerates to the plain header, byte for byte.
	plain := AppendResponseHeader(nil, 503, "text/plain", 0, false)
	bare := AppendResponseHeaderExtra(nil, 503, "text/plain", 0, false)
	if string(plain) != string(bare) {
		t.Fatalf("extra-less helper diverged:\n%q\n%q", plain, bare)
	}
}

// A Refusal is AppendRefusal's bytes serialized once: the same slice
// comes back, with no allocation, until the cached Date moves, and then
// the head carries the new Date.
func TestRefusalTracksTheDate(t *testing.T) {
	RefreshDate(time.Date(2004, 4, 26, 12, 0, 0, 0, time.UTC))
	for _, via := range []string{"", "1.1 nioproxy"} {
		r := NewRefusal(3, via)
		first := r.Bytes()
		want := AppendResponseHeaderExtra(nil, 503, "text/plain", 0, false, Header{Name: "Retry-After", Value: "3"})
		if via != "" {
			want = AppendResponseHeaderExtra(nil, 503, "text/plain", 0, false,
				Header{Name: "Retry-After", Value: "3"}, Header{Name: "Via", Value: via})
		}
		if string(first) != string(want) || string(first) != string(AppendRefusal(nil, 3, via)) {
			t.Fatalf("via %q: refusal\n%q\nwant\n%q", via, first, want)
		}
		if n := testing.AllocsPerRun(100, func() { r.Bytes() }); n != 0 {
			t.Errorf("via %q: Bytes allocates %.1f objects with the Date unchanged", via, n)
		}
		if again := r.Bytes(); &again[0] != &first[0] {
			t.Errorf("via %q: Bytes re-serialized with the Date unchanged", via)
		}
		RefreshDate(time.Date(2004, 4, 26, 12, 0, 1, 0, time.UTC))
		if got := string(r.Bytes()); !strings.Contains(got, "Date: Mon, 26 Apr 2004 12:00:01 GMT\r\n") {
			t.Errorf("via %q: refusal kept a stale Date:\n%q", via, got)
		}
		RefreshDate(time.Date(2004, 4, 26, 12, 0, 0, 0, time.UTC))
	}
}
