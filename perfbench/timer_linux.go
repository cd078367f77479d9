package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// waiter sleeps with microsecond precision. time.Sleep below a millisecond
// rounds up to the runtime's ~1 ms poller tick whenever the process is
// idle, which would swamp the relays' per-level delays and the open loop's
// schedule; a timerfd parked in the network poller wakes within tens of
// microseconds and, unlike a blocking nanosleep, never holds a P.
type waiter struct {
	f  *os.File
	rc syscall.RawConn
}

type itimerspec struct {
	interval syscall.Timespec
	value    syscall.Timespec
}

// newWaiter returns a timerfd-backed waiter, or one that falls back to
// time.Sleep when the kernel refuses a timerfd.
func newWaiter() *waiter {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return &waiter{}
	}
	f := os.NewFile(fd, "timerfd")
	rc, err := f.SyscallConn()
	if err != nil {
		f.Close()
		return &waiter{}
	}
	return &waiter{f: f, rc: rc}
}

// wait blocks for d.
func (w *waiter) wait(d time.Duration) {
	if d <= 0 {
		return
	}
	if w.f == nil {
		time.Sleep(d)
		return
	}
	its := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	var errno syscall.Errno
	if err := w.rc.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&its)), 0, 0, 0)
	}); err != nil || errno != 0 {
		time.Sleep(d)
		return
	}
	var buf [8]byte
	if _, err := w.f.Read(buf[:]); err != nil {
		time.Sleep(d)
	}
}

// until blocks until t.
func (w *waiter) until(t time.Time) { w.wait(time.Until(t)) }

// close releases the timerfd.
func (w *waiter) close() {
	if w.f != nil {
		w.f.Close()
	}
}
