// Package durable: an fsync through the durable.File seam is as blocking
// as one on an *os.File.
package durable

import "sync"

type File interface {
	Write(p []byte) (int, error)
	Sync() error
}

type log struct {
	mu sync.Mutex
	f  File
}

func (l *log) appendUnderLock(p []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.f.Write(p); err != nil {
		return err
	}
	return l.f.Sync() // want `file fsync in appendUnderLock while l\.mu is held`
}
