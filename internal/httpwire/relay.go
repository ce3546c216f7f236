package httpwire

import (
	"strconv"
	"strings"
	"time"
)

// This file is the relay third of the wire: the header surgery an L7
// proxy performs when it forwards a request upstream (hop-by-hop
// stripping, Via and X-Forwarded-For provenance), the request-head
// serializer the proxy re-emits the rewritten request with, and the
// Retry-After parser both the proxy and the load generator use to honor
// a 503's backoff advice. Responses are deliberately NOT rewritten
// anywhere in this package: the serving tier's contract is that a
// backend's response — especially an overload 503 and its Retry-After —
// passes through byte-identical, so shed attribution can key on the Via
// header only the proxy's own responses carry.

// hopByHop reports header fields that are connection-scoped (RFC 9110
// §7.6.1) and must not be forwarded by an intermediary. Connection and
// Keep-Alive govern the downstream leg only; the proxy owns its own
// upstream connection policy.
func hopByHop(name string) bool {
	switch {
	case equalFold(name, "Connection"),
		equalFold(name, "Keep-Alive"),
		equalFold(name, "Proxy-Connection"),
		equalFold(name, "Transfer-Encoding"),
		equalFold(name, "TE"),
		equalFold(name, "Trailer"),
		equalFold(name, "Upgrade"):
		return true
	}
	return false
}

// ForwardHeaders builds the header set for relaying req upstream:
// hop-by-hop fields are dropped, Via is extended with the relaying
// intermediary's token (e.g. "1.1 nioproxy"), and X-Forwarded-For is
// extended with the downstream client's address. Existing Via and
// X-Forwarded-For values are preserved and appended to, comma-separated,
// so a chain of proxies accumulates provenance in order.
func ForwardHeaders(req *Request, via, clientAddr string) []Header {
	return AppendForwardHeaders(make([]Header, 0, len(req.Headers)+2), req, via, clientAddr)
}

// AppendForwardHeaders is ForwardHeaders into the caller's slice: the
// relay loop builds every forwarded header set in one scratch array.
//
//nio:hot
func AppendForwardHeaders(out []Header, req *Request, via, clientAddr string) []Header {
	var prevVia, prevXFF string
	for _, h := range req.Headers {
		if hopByHop(h.Name) {
			continue
		}
		if equalFold(h.Name, "Via") {
			prevVia = joinListValue(prevVia, h.Value)
			continue
		}
		if equalFold(h.Name, "X-Forwarded-For") {
			prevXFF = joinListValue(prevXFF, h.Value)
			continue
		}
		out = append(out, h)
	}
	if via != "" {
		out = append(out, Header{Name: "Via", Value: joinListValue(prevVia, via)})
	} else if prevVia != "" {
		out = append(out, Header{Name: "Via", Value: prevVia})
	}
	if clientAddr != "" {
		out = append(out, Header{Name: "X-Forwarded-For", Value: joinListValue(prevXFF, clientAddr)})
	} else if prevXFF != "" {
		out = append(out, Header{Name: "X-Forwarded-For", Value: prevXFF})
	}
	return out
}

// joinListValue appends elem to a comma-separated list value.
func joinListValue(list, elem string) string {
	elem = strings.TrimSpace(elem)
	if list == "" {
		return elem
	}
	if elem == "" {
		return list
	}
	return list + ", " + elem
}

// AppendRequestHead serializes a request head — request line, headers,
// terminating blank line — into dst and returns the extended slice.
// Names and values must already be valid header text; nothing is
// escaped. The relay path uses this to re-emit a parsed-and-rewritten
// request upstream.
func AppendRequestHead(dst []byte, method, path, proto string, headers []Header) []byte {
	dst = append(dst, method...)
	dst = append(dst, ' ')
	dst = append(dst, path...)
	dst = append(dst, ' ')
	dst = append(dst, proto...)
	dst = append(dst, "\r\n"...)
	for _, h := range headers {
		dst = append(dst, h.Name...)
		dst = append(dst, ": "...)
		dst = append(dst, h.Value...)
		dst = append(dst, "\r\n"...)
	}
	return append(dst, "\r\n"...)
}

// ParseRetryAfter resolves a response's Retry-After header into a wait
// duration. Both standard forms are accepted (RFC 9110 §10.2.3):
// delta-seconds, and an HTTP-date resolved against now (a date in the
// past yields 0, not a negative wait). ok is false when the header is
// absent or unparseable — the caller falls back to its own default.
func ParseRetryAfter(resp *Response, now time.Time) (time.Duration, bool) {
	v, found := resp.Get("Retry-After")
	if !found {
		return 0, false
	}
	return ParseRetryAfterValue(v, now)
}

// ParseRetryAfterValue parses one Retry-After field value (see
// ParseRetryAfter).
func ParseRetryAfterValue(v string, now time.Time) (time.Duration, bool) {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0, false
	}
	// delta-seconds: all digits. A leading sign is not grammar.
	allDigits := true
	for i := 0; i < len(v); i++ {
		if v[i] < '0' || v[i] > '9' {
			allDigits = false
			break
		}
	}
	if allDigits {
		secs, err := strconv.ParseInt(v, 10, 32)
		if err != nil {
			return 0, false // overflow: treat as unparseable
		}
		return time.Duration(secs) * time.Second, true
	}
	if t, ok := ParseHTTPDate(v); ok {
		d := t.Sub(now)
		if d < 0 {
			d = 0
		}
		return d, true
	}
	return 0, false
}
