// Fixture for the syscallerr analyzer: audited syscalls must classify
// EINTR and EAGAIN (or delegate EINTR to a retryEINTR helper).
package fixture

import (
	"errors"
	"syscall"
	"unsafe"
)

// bad: a bare err != nil treats both transient errnos as fatal.
func bareRead(fd int, buf []byte) int {
	n, err := syscall.Read(fd, buf) // want "EINTR" "EAGAIN"
	if err != nil {
		return -1
	}
	return n
}

// bad: EINTR handled, EAGAIN still fatal.
func halfClassified(fd int, buf []byte) int {
	n, err := syscall.Read(fd, buf) // want "EAGAIN"
	if err == syscall.EINTR {
		return 0
	}
	if err != nil {
		return -1
	}
	return n
}

// bad: EpollWait is interrupted by every signal; EINTR must be
// classified (EAGAIN is not demanded here).
func waitBare(epfd int, events []syscall.EpollEvent) int {
	n, err := syscall.EpollWait(epfd, events, -1) // want "EINTR"
	if err != nil {
		return -1
	}
	return n
}

// good: both errnos classified with comparisons.
func classifiedRead(fd int, buf []byte) int {
	for {
		n, err := syscall.Read(fd, buf)
		if err == syscall.EINTR {
			continue
		}
		if err == syscall.EAGAIN {
			return 0
		}
		if err != nil {
			return -1
		}
		return n
	}
}

// good: switch cases count as classification.
func switchWrite(fd int, buf []byte) bool {
	n, err := syscall.Write(fd, buf)
	switch err {
	case syscall.EINTR, syscall.EAGAIN:
		return false
	case nil:
		return n == len(buf)
	}
	return false
}

// good: errors.Is counts as classification.
func waitIs(epfd int, events []syscall.EpollEvent) int {
	n, err := syscall.EpollWait(epfd, events, -1)
	if errors.Is(err, syscall.EINTR) {
		return 0
	}
	if err != nil {
		return -1
	}
	return n
}

// retryEINTR is the blessed retry helper shape: it owns the EINTR
// classification for every closure passed to it.
func retryEINTR(op func() (int, error)) (int, error) {
	for {
		n, err := op()
		if err != syscall.EINTR {
			return n, err
		}
	}
}

// good: EINTR delegated to the helper, EAGAIN classified locally.
func viaHelper(fd int, buf []byte) int {
	n, err := retryEINTR(func() (int, error) { return syscall.Read(fd, buf) })
	if err == syscall.EAGAIN {
		return 0
	}
	if err != nil {
		return -1
	}
	return n
}

// good: discarding the error is a deliberate decision, not bare
// handling (the wakeup-pipe write pattern).
func fireAndForget(fd int) {
	_, _ = syscall.Write(fd, []byte{1})
}

// bad: sendto(2) is write(2) with flags — a bare site outside the
// sysfault seam owes both classifications like any other raw write.
func bareSendto(fd int, buf []byte) bool {
	err := syscall.Sendto(fd, buf, syscall.MSG_MORE, nil) // want "syscall.Sendto.*EINTR" "syscall.Sendto.*EAGAIN"
	if err != nil {
		return false
	}
	return true
}

// bad: the trampoline spelling (the one that keeps the byte count) is
// the same syscall and gets no pass.
func bareRawSendto(fd int, buf []byte) int {
	n, _, errno := syscall.Syscall6(syscall.SYS_SENDTO, uintptr(fd), // want "syscall.Sendto.*EINTR" "syscall.Sendto.*EAGAIN"
		uintptr(unsafe.Pointer(&buf[0])), uintptr(len(buf)), syscall.MSG_MORE, 0, 0)
	if errno != 0 {
		return -1
	}
	return int(n)
}

// good: both errnos classified at a raw sendto site.
func classifiedRawSendto(fd int, buf []byte) int {
	for {
		n, _, errno := syscall.Syscall6(syscall.SYS_SENDTO, uintptr(fd),
			uintptr(unsafe.Pointer(&buf[0])), uintptr(len(buf)), syscall.MSG_MORE, 0, 0)
		switch errno {
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return 0
		case 0:
			return int(n)
		}
		return -1
	}
}

// good: the trampolines carry every syscall; only SYS_SENDTO is
// audited through them.
func rawGetpid() int {
	pid, _, errno := syscall.RawSyscall(syscall.SYS_GETPID, 0, 0, 0)
	if errno != 0 {
		return -1
	}
	return int(pid)
}

// bad: a signal during open(2) is not a missing file.
func bareOpen(path string) int {
	fd, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0) // want "syscall.Open.*EINTR"
	if err != nil {
		return -1
	}
	return fd
}

// bad: fstat(2) and pread(2) are interrupted the same way.
func bareStatRead(fd int, buf []byte) int {
	var st syscall.Stat_t
	if err := syscall.Fstat(fd, &st); err != nil { // want "syscall.Fstat.*EINTR"
		return -1
	}
	n, err := syscall.Pread(fd, buf, 0) // want "syscall.Pread.*EINTR"
	if err != nil {
		return -1
	}
	return n
}

// good: the file calls owe EINTR only — a regular file never
// would-blocks, so no EAGAIN classification is demanded.
func retriedOpen(path string) int {
	for {
		fd, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
		switch err {
		case nil:
			return fd
		case syscall.EINTR:
			continue
		}
		return -1
	}
}

// good: a retry loop per call.
func retriedFstat(fd int, st *syscall.Stat_t) error {
	for {
		err := syscall.Fstat(fd, st)
		if err != syscall.EINTR {
			return err
		}
	}
}

// good: the full-read loop retries the interrupted call at the same
// offset.
func retriedPread(fd int, buf []byte) (int, error) {
	n := 0
	for n < len(buf) {
		m, err := syscall.Pread(fd, buf[n:], int64(n))
		if err == syscall.EINTR {
			continue
		}
		if err != nil || m == 0 {
			return n, err
		}
		n += m
	}
	return n, nil
}
