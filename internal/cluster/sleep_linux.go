//go:build linux

package cluster

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// clockMonotonic is CLOCK_MONOTONIC; package syscall exports no clock ids.
const clockMonotonic = 1

// sleeper waits the way I/O waits: it arms a one-shot CLOCK_MONOTONIC
// timerfd and reads it through the netpoller, so the goroutine parks
// without holding an OS thread and wakes when the kernel fires the timer —
// within its ≈ 50 µs slack, never early — instead of on the runtime
// timer's next whole-millisecond epoll_wait. The timerfd is opened on the
// first sleep and re-armed by the next, so a long-lived sleeper (one per
// executor, or one borrowed from ExecWork's pool) pays three syscalls a
// sleep: settime and two reads. A closed stop cuts the current and every
// later sleep short; a nil stop never does. Should the kernel refuse a
// timer (fd exhaustion), sleeps fall back to the runtime's. The zero value
// sleeps with no stop; close releases the timer, and so does the
// collector once a stop-less sleeper is unreachable.
type sleeper struct {
	stop <-chan struct{}
	f    *os.File // nil until the first sleep, or when refused
	fd   uintptr  // f's descriptor; f.Fd() would make it blocking
	done chan struct{}
}

// sleep waits d, reporting false when stop closed first.
func (s *sleeper) sleep(d time.Duration) bool {
	if d <= 0 {
		return true // a zero it_value would disarm the timer, not fire it
	}
	if s.f == nil && !s.open() {
		return sleepOrStop(d, s.stop)
	}
	// struct itimerspec {it_interval, it_value}: a zero interval is one shot.
	spec := [2]syscall.Timespec{1: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.fd, 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return sleepOrStop(d, s.stop)
	}
	var expirations [8]byte
	_, err := s.f.Read(expirations[:])
	return err == nil
}

// open creates the timerfd and, with a stop, the goroutine that turns its
// closing into a past read deadline.
func (s *sleeper) open() bool {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return false
	}
	// The fd is already non-blocking, so os.NewFile registers it with the
	// netpoller and Read parks instead of blocking a thread.
	f := os.NewFile(fd, "timerfd")
	s.f, s.fd = f, fd
	if s.stop != nil {
		stop, done := s.stop, make(chan struct{})
		s.done = done
		go func() {
			select {
			case <-stop:
				f.SetReadDeadline(time.Unix(1, 0)) // fails this and every later Read at once
			case <-done:
			}
		}()
	}
	return true
}

// close releases the timer and its stop watcher.
func (s *sleeper) close() {
	if s.done != nil {
		close(s.done)
	}
	if s.f != nil {
		s.f.Close()
	}
}
