//go:build linux

package docroot

import (
	"io"
	"syscall"
)

// openFlags is how every docroot file is opened. O_CLOEXEC as os.Open
// sets it. O_NONBLOCK so that opening a FIFO somebody left in the tree
// returns at once instead of parking the calling event loop until a
// writer appears (fstat then refuses it as not regular); on the regular
// files that survive that check it changes nothing — pread(2) and
// sendfile(2) from the page cache do not consult it. O_NOCTTY so a
// terminal device in the tree cannot become the server's controlling
// terminal in the instant before fstat refuses it too.
const openFlags = syscall.O_RDONLY | syscall.O_CLOEXEC | syscall.O_NONBLOCK | syscall.O_NOCTTY

// fstat is fstat(2), retried while a signal interrupts it.
func fstat(fd int, st *syscall.Stat_t) error {
	for {
		err := syscall.Fstat(fd, st)
		if err != syscall.EINTR {
			return err
		}
	}
}

// preadFull reads len(p) bytes at off, however many pread(2) calls that
// takes, and never moves the descriptor's file position. A file that
// ends first yields io.EOF with the count that was there.
func preadFull(fd int, p []byte, off int64) (int, error) {
	n := 0
	for n < len(p) {
		m, err := syscall.Pread(fd, p[n:], off+int64(n))
		switch {
		case err == syscall.EINTR:
			continue
		case err != nil:
			return n, err
		case m == 0:
			return n, io.EOF
		}
		n += m
	}
	return n, nil
}

// readBody loads the size bytes fstat reported. A file cut short since
// then is io.ErrUnexpectedEOF — an error, never a body whose tail was
// not read.
func readBody(fd int, size int64) ([]byte, error) {
	body := make([]byte, size)
	if _, err := preadFull(fd, body, 0); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return body, nil
}
