// Seam cases: sysfault wrappers absorb EINTR internally, so their call
// sites owe only the EAGAIN classification — and still owe that.
package fixture

import (
	"syscall"

	"repro/internal/sysfault"
)

// bad: the seam hands EAGAIN through raw; a bare err != nil treats
// every would-block as fatal.
func seamBareRead(fd int, buf []byte) int {
	n, err := sysfault.Read(0, fd, buf) // want "EAGAIN"
	if err != nil {
		return -1
	}
	return n
}

// bad: same for the write side.
func seamBareWrite(fd int, buf []byte) bool {
	n, err := sysfault.Write(0, fd, buf) // want "EAGAIN"
	if err != nil {
		return false
	}
	return n == len(buf)
}

// bad: WriteMore is the write site's MSG_MORE spelling and passes
// would-block through exactly as Write does.
func seamBareWriteMore(fd int, buf []byte) bool {
	n, err := sysfault.WriteMore(0, fd, buf) // want "sysfault.WriteMore.*EAGAIN"
	if err != nil {
		return false
	}
	return n == len(buf)
}

// good: the seam's sendto owes EAGAIN only — no EINTR classification
// is demanded of the call site.
func seamClassifiedWriteMore(fd int, buf []byte) int {
	n, err := sysfault.WriteMore(0, fd, buf)
	switch err {
	case nil:
		return n
	case syscall.EAGAIN:
		return 0
	}
	return -1
}

// good: EAGAIN classified; no EINTR classification is demanded because
// the wrapper's retry loop owns it.
func seamClassifiedRead(fd int, buf []byte) int {
	n, err := sysfault.Read(0, fd, buf)
	if err == syscall.EAGAIN {
		return 0
	}
	if err != nil {
		return -1
	}
	return n
}

// good: errors.Is-free switch classification works for seam sites too.
func seamAccept(lfd int) int {
	fd, err := sysfault.Accept4(0, lfd, syscall.SOCK_NONBLOCK)
	switch err {
	case syscall.EAGAIN:
		return -1
	case nil:
		return fd
	}
	return -1
}

// good: discarding the result is a deliberate decision, as with raw
// syscalls.
func seamFireAndForget(fd int) {
	_, _ = sysfault.Write(0, fd, []byte{1})
}

// good: EpollWait through the seam surfaces neither EINTR (absorbed)
// nor EAGAIN (cannot happen), so a bare site is fine.
func seamWait(epfd int, events []syscall.EpollEvent) int {
	n, err := sysfault.EpollWait(0, epfd, events, -1)
	if err != nil {
		return -1
	}
	return n
}
