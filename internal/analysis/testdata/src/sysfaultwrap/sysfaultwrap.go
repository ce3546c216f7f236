// Fixture for the syscallerr seam-wrapper exemption: inside a package
// named sysfault, the wrapper whose name matches the syscall is the one
// blessed home of a bare call site (its retry loop absorbs EINTR and
// its contract hands EAGAIN to the caller raw). Everything else in the
// package — and any un-routed bare syscall — still fails the lint.
package sysfault

import (
	"syscall"
	"unsafe"
)

// good: the same-named wrapper is exempt — this is the seam itself.
func Read(fd int, p []byte) (int, error) {
	for {
		n, err := syscall.Read(fd, p)
		if err == syscall.EINTR {
			continue
		}
		return n, err
	}
}

// good: same shape for the write wrapper.
func Write(fd int, p []byte) (int, error) {
	for {
		n, err := syscall.Write(fd, p)
		if err == syscall.EINTR {
			continue
		}
		return n, err
	}
}

// good: sendto(2) is the write site's MSG_MORE spelling, and its one
// blessed home is the wrapper named WriteMore.
func WriteMore(fd int, p []byte) (int, error) {
	for {
		n, _, errno := syscall.Syscall6(syscall.SYS_SENDTO, uintptr(fd),
			uintptr(unsafe.Pointer(&p[0])), uintptr(len(p)), syscall.MSG_MORE, 0, 0)
		if errno == syscall.EINTR {
			continue
		}
		if errno != 0 {
			return 0, errno
		}
		return int(n), nil
	}
}

// bad: a sendto anywhere else in the seam package is as un-routed as
// one outside it.
func sendFlagged(fd int, p []byte) int {
	n, _, errno := syscall.Syscall6(syscall.SYS_SENDTO, uintptr(fd), // want "EINTR" "EAGAIN"
		uintptr(unsafe.Pointer(&p[0])), uintptr(len(p)), syscall.MSG_MORE, 0, 0)
	if errno != 0 {
		return -1
	}
	return int(n)
}

// bad: a helper with a different name gets no exemption — a bare
// un-routed syscall site fails the lint even inside this package.
func drainPipe(fd int, p []byte) int {
	n, err := syscall.Read(fd, p) // want "EINTR" "EAGAIN"
	if err != nil {
		return -1
	}
	return n
}

// bad: a wrapper for one syscall is not a licence for another — the
// exemption is keyed on the exact name match.
func Accept4(lfd, flags int) (int, error) {
	nfd, _, err := syscall.Accept4(lfd, flags)
	if err != nil {
		return -1, err
	}
	_, werr := syscall.Write(nfd, nil) // want "EINTR" "EAGAIN"
	if werr != nil {
		return -1, werr
	}
	return nfd, nil
}
