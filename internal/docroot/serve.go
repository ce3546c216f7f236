//go:build linux

package docroot

import "io"

// Writer is the connection surface SendfileTo needs: an io.Writer that
// may additionally implement syscall.Conn (net.TCPConn does) to unlock
// the zero-copy path.
type Writer interface {
	io.Writer
}

// copyTo is the buffered delivery loop: pread into a scratch buffer,
// write to the connection. Taken for connections that do not expose a
// raw descriptor.
func copyTo(conn Writer, e *Entry) (int64, error) {
	return copyToFrom(conn, e, 0)
}

// copyToFrom delivers the entry's body from offset off onward and
// returns how many bytes it wrote (not counting anything delivered
// before off). It re-reads at the current offset after every write,
// so short writes — a kernel under memory pressure, or an injected
// fault — cost a retry, never a corrupt byte stream. This is also the
// resume path when sendfile(2) fails mid-response: the kernel never
// advances the offset of a failing sendfile, so continuing from the
// recorded offset is exact.
func copyToFrom(conn Writer, e *Entry, off int64) (int64, error) {
	buf := make([]byte, 64<<10)
	start := off
	for off < e.Size {
		want := e.Size - off
		if want > int64(len(buf)) {
			want = int64(len(buf))
		}
		n, err := e.ReadAt(buf[:want], off)
		if n > 0 {
			m, werr := conn.Write(buf[:n])
			off += int64(m)
			if werr != nil {
				return off - start, werr
			}
		}
		if off >= e.Size {
			break // a full final read may carry io.EOF; that's success
		}
		if err == io.EOF || (err == nil && n == 0) {
			return off - start, io.ErrUnexpectedEOF // file shrank underneath us
		}
		if err != nil {
			return off - start, err
		}
	}
	return off - start, nil
}
