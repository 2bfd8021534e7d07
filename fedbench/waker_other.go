//go:build !(linux && (amd64 || arm64))

package main

import "time"

// waker falls back to time.Sleep where no timerfd is wired up.
type waker struct{}

func newWaker() (*waker, error) { return &waker{}, nil }

func (w *waker) sleepUntil(due time.Time) error {
	time.Sleep(time.Until(due))
	return nil
}

func (w *waker) close() {}
