//go:build linux && (amd64 || arm64)

package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// waker sleeps until a due time with the precision of a Linux timerfd.
// time.Sleep wakes an idle Go scheduler through a poll whose timeout
// is in whole milliseconds, so an open loop's operations would start
// up to a millisecond late; a timerfd's readiness wakes the poller as
// the timer fires, and the waiting goroutine holds no processor.
type waker struct {
	f *os.File
}

func newWaker() (*waker, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	return &waker{f: os.NewFile(fd, "timerfd")}, nil
}

// sleepUntil returns at due, or at once if due has passed.
func (w *waker) sleepUntil(due time.Time) error {
	wait := time.Until(due)
	if wait <= time.Microsecond {
		return nil
	}
	spec := [4]int64{0, 0, int64(wait / time.Second), int64(wait % time.Second)} // interval, value
	conn, err := w.f.SyscallConn()
	if err != nil {
		return err
	}
	var errno syscall.Errno
	if err := conn.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	}); err != nil {
		return err
	}
	if errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	var buf [8]byte
	_, err = w.f.Read(buf[:])
	return err
}

func (w *waker) close() { w.f.Close() }
