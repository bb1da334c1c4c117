package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// ticker delivers the open loop's schedule from a Linux timerfd. The Go
// runtime's own timers sleep in whole milliseconds while every goroutine is
// idle, so time.Sleep alone would make the generator itself late by up to a
// millisecond per operation — more than the round trips being measured. A
// timerfd wakes the runtime's network poller at the expiry instead. The
// poller is consulted only when a processor runs out of work, though, so
// onSchedule also arms a runtime timer, which busy processors check on
// every scheduling decision, and wakes on whichever fires first.
type ticker struct {
	f   *os.File
	buf [8]byte
}

// newTicker expires first at first and then every interval.
func newTicker(first time.Time, interval time.Duration) (*ticker, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	spec := struct{ interval, value syscall.Timespec }{
		interval: syscall.NsecToTimespec(interval.Nanoseconds()),
		value:    syscall.NsecToTimespec(max(1, time.Until(first).Nanoseconds())),
	}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		syscall.Close(int(fd))
		return nil, fmt.Errorf("timerfd_settime: %w", errno)
	}
	return &ticker{f: os.NewFile(fd, "timerfd")}, nil
}

// wait blocks until the next expiry (or returns at once when expiries are
// pending).
func (t *ticker) wait() error {
	_, err := t.f.Read(t.buf[:])
	return err
}

func (t *ticker) close() { t.f.Close() }

// onSchedule calls send(s, due) for s = 0..n-1 at due = first + s·interval,
// each as soon as it is due.
func onSchedule(first time.Time, interval time.Duration, n int, send func(s int, due time.Time) error) error {
	t, err := newTicker(first, interval)
	if err != nil {
		return err
	}
	expired := make(chan struct{}, 1)
	done := make(chan struct{})
	defer func() {
		t.close() // ends the reader's wait
		<-done
	}()
	go func() {
		defer close(done)
		for {
			if err := t.wait(); err != nil {
				return
			}
			select {
			case expired <- struct{}{}:
			default: // a wake-up is already pending
			}
		}
	}()
	for s := 0; s < n; {
		due := first.Add(time.Duration(s) * interval)
		if wait := time.Until(due); wait > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-timer.C:
			case <-expired:
			}
			timer.Stop()
			continue // re-check: a pending expiry may be an earlier one's
		}
		if err := send(s, due); err != nil {
			return err
		}
		s++
	}
	return nil
}
