package httpwire

import "bytes"

// This file is what the request and the response parser share: cutting a
// byte stream into lines without copying it, remembering where the
// header fields of the head being scanned sit, and cutting them out of
// the one string the head becomes.
//
// Ownership rule (DESIGN.md §16): a parsed message owns exactly one
// string, its head, and every name and value it exposes is a substring
// of it. Retaining any header retains the whole head; nothing a parser
// returns aliases the caller's data, so a read buffer can be reused the
// moment Feed returns.

// inlineHeaders is how many header fields a Response (and a parser's
// offset table) holds inside its own struct; a head with more spills to
// a separate array. Our own servers send 5 to 7 fields per reply.
const inlineHeaders = 8

// fieldMark locates one header field in the head being scanned, as
// offsets from the head's first byte.
type fieldMark struct{ name, colon, val, end uint32 }

// lineScanner hands a parser the lines of a stream in place, in the
// caller's data. Only a head (or a framing line) that an earlier Feed
// ended inside of is completed in buf, line by line, so buf never holds
// more than one head and never a body byte.
type lineScanner struct {
	// buf is empty while scanning in place; otherwise it holds the
	// current head from its first byte, and lineOff is where the
	// unfinished line starts in it.
	buf     []byte
	lineOff int
	// marks are the header fields of the current head, in marksInline
	// until a head outgrows it (the larger array is then kept).
	marks       []fieldMark
	marksInline [inlineHeaders]fieldMark
}

// next cuts the next line off data[*pos:] and advances *pos past it. The
// line comes back without its CR LF, with its offset from the first byte
// of the head being scanned — data[hs], or buf[0] when the head began in
// an earlier Feed. ok is false when data ran out first: what there is of
// the head has then been kept in buf, and line is the unfinished line,
// for the caller's length check only.
//
//nio:hot
func (s *lineScanner) next(data []byte, pos *int, hs int) (line []byte, off int, ok bool) {
	rest := data[*pos:]
	i := bytes.IndexByte(rest, '\n')
	if len(s.buf) == 0 {
		off = *pos - hs
		if i < 0 {
			s.buf = append(s.buf, data[hs:]...)
			s.lineOff = off
			*pos = len(data)
			return trimCR(rest), off, false
		}
		*pos += i + 1
		return trimCR(rest[:i]), off, true
	}
	off = s.lineOff
	if i < 0 {
		s.buf = append(s.buf, rest...)
		*pos = len(data)
		return trimCR(s.buf[off:]), off, false
	}
	s.buf = append(s.buf, rest[:i+1]...)
	*pos += i + 1
	s.lineOff = len(s.buf)
	return trimCR(s.buf[off : len(s.buf)-1]), off, true
}

//nio:hot
func trimCR(line []byte) []byte {
	if n := len(line); n > 0 && line[n-1] == '\r' {
		return line[:n-1]
	}
	return line
}

// head returns the first n bytes of the head being scanned (see next).
//
//nio:hot
func (s *lineScanner) head(data []byte, hs, n int) []byte {
	if len(s.buf) > 0 {
		return s.buf[:n]
	}
	return data[hs : hs+n]
}

// release ends the head (or framing line) being scanned: the rest of the
// stream is scanned in place again. An array grown past one line's bound
// by an unusually long head is not kept.
//
//nio:hot
func (s *lineScanner) release() {
	if cap(s.buf) > MaxLineBytes {
		s.buf = nil
	} else {
		s.buf = s.buf[:0]
	}
}

// beginHead empties the offset table for a new head.
//
//nio:hot
func (s *lineScanner) beginHead() {
	if cap(s.marks) <= inlineHeaders {
		s.marks = s.marksInline[:0]
	} else {
		s.marks = s.marks[:0]
	}
}

// field checks one header line, found at offset off of its head, and
// records where its name and its trimmed value sit.
//
//nio:hot
func (s *lineScanner) field(line []byte, off int) (name, value []byte, err error) {
	if len(s.marks) >= MaxHeaderCount {
		return nil, nil, parseErr("more than %d headers", MaxHeaderCount)
	}
	i := bytes.IndexByte(line, ':')
	if i <= 0 {
		return nil, nil, parseErr("malformed header %q", line)
	}
	v0, v1 := i+1, len(line)
	for v0 < v1 && (line[v0] == ' ' || line[v0] == '\t') {
		v0++
	}
	for v1 > v0 && (line[v1-1] == ' ' || line[v1-1] == '\t') {
		v1--
	}
	s.marks = append(s.marks, fieldMark{uint32(off), uint32(off + i), uint32(off + v0), uint32(off + v1)})
	return line[:i], line[v0:v1], nil
}

// cutHeaders appends the marked fields to dst as substrings of head.
//
//nio:hot
func (s *lineScanner) cutHeaders(dst []Header, head string) []Header {
	for _, m := range s.marks {
		dst = append(dst, Header{Name: head[m.name:m.colon], Value: head[m.val:m.end]})
	}
	return dst
}

// nameIs reports whether a header name equals lower, which must be in
// lower case, ignoring ASCII case.
//
//nio:hot
func nameIs(name []byte, lower string) bool {
	if len(name) != len(lower) {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

// parseLength parses a Content-Length value: decimal digits only (no
// sign, no space — what strconv would let through is what a second
// parser on the path may read differently), at most max.
//
//nio:hot
func parseLength(v []byte, max int64) (int64, bool) {
	if len(v) == 0 {
		return 0, false
	}
	var n int64
	for _, c := range v {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := int64(c - '0')
		if n > (max-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, true
}
