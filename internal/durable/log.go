package durable

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
)

// Framing is how a Log delimits records on disk.
type Framing int

const (
	// Lines frames a record as its payload followed by a newline. The
	// payload must not contain one (compact JSON never does).
	Lines Framing = iota
	// CRC frames a record as an 8-byte header — payload length and IEEE
	// CRC32 of the payload, both little-endian uint32 — then the payload.
	CRC
)

const (
	crcHeaderSize = 8
	// maxCRCPayload is a sanity check against a garbage length in a corrupt
	// header, not a real limit.
	maxCRCPayload = 1 << 30
)

// frame returns payload framed for appending.
func (fr Framing) frame(payload []byte) []byte {
	if fr == Lines {
		return append(append(make([]byte, 0, len(payload)+1), payload...), '\n')
	}
	out := make([]byte, crcHeaderSize, crcHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// next splits the first record off data: its payload and framed size. ok is
// false when data does not start with a complete, intact record.
func (fr Framing) next(data []byte) (payload []byte, size int, ok bool) {
	if fr == Lines {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			return nil, 0, false
		}
		return data[:nl], nl + 1, true
	}
	if len(data) < crcHeaderSize {
		return nil, 0, false
	}
	n := int(binary.LittleEndian.Uint32(data[0:4]))
	if n > maxCRCPayload || len(data) < crcHeaderSize+n {
		return nil, 0, false
	}
	payload = data[crcHeaderSize : crcHeaderSize+n]
	return payload, crcHeaderSize + n, crc32.ChecksumIEEE(payload) == binary.LittleEndian.Uint32(data[4:8])
}

// ErrClosed is returned by operations on a closed Log.
var ErrClosed = errors.New("durable: log is closed")

// Log is an append-only record log. Safe for concurrent use.
type Log struct {
	fs      FS
	path    string
	framing Framing

	mu  sync.Mutex
	f   File  // nil once closed
	err error // first append or reset failure; latched
}

// OpenLog opens the log at path for appending, creating it when absent and
// emptying it first when truncate is set. It does not look at existing
// content: a log that may end in a torn record goes through Recover first.
func OpenLog(fsys FS, path string, fr Framing, truncate bool) (*Log, error) {
	l := &Log{fs: fsys, path: path, framing: fr}
	if err := l.open(truncate); err != nil {
		return nil, fmt.Errorf("durable: open %s: %w", path, err)
	}
	return l, nil
}

func (l *Log) open(truncate bool) (err error) {
	flags := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	if truncate {
		flags |= os.O_TRUNC
	}
	l.f, err = l.fs.OpenFile(l.path, flags)
	return err
}

// usable reports why the log cannot take an operation, or nil.
func (l *Log) usable() error {
	if l.err == nil && l.f == nil {
		return ErrClosed
	}
	return l.err
}

// Append frames payload, appends it with one write and makes it durable
// with one fsync; the record survives a crash once Append returns nil. The
// first failure is latched: it may have left a torn record behind, after
// which nothing appended would be recoverable, so every later Append
// returns the same error without touching the file.
func (l *Log) Append(payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usable(); err != nil {
		return err
	}
	_, err := l.f.Write(l.framing.frame(payload))
	if err == nil {
		//unicolint:allow locksafe WAL ordering: write+fsync must be atomic under l.mu or concurrent appends could interleave records
		err = l.f.Sync()
	}
	if err != nil {
		l.err = fmt.Errorf("durable: append %s: %w", l.path, err)
	}
	return l.err
}

// AppendJSON appends v's compact JSON encoding. An encoding failure is
// returned without being latched: nothing touched the file.
func (l *Log) AppendJSON(v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("durable: encode record for %s: %w", l.path, err)
	}
	return l.Append(payload)
}

// Reset empties the log (a snapshot now subsumes its records). It truncates
// through a fresh handle rather than the append handle, which keeps the
// append offset coherent on every platform.
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usable(); err != nil {
		return err
	}
	err := l.f.Close()
	l.f = nil
	if err == nil {
		err = l.open(true)
	}
	if err != nil {
		l.err = fmt.Errorf("durable: reset %s: %w", l.path, err)
	}
	return l.err
}

// Err returns the latched failure, if any.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Close releases the file and reports the latched failure, if any, else the
// close error. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f != nil {
		err := l.f.Close()
		l.f = nil
		if l.err == nil {
			return err
		}
	}
	return l.err
}

// Recover reads the log at path and hands accept the payload of each record
// of its intact prefix, in order, stopping at the first record that is torn
// or that accept refuses. Whatever follows the accepted prefix — a torn
// final record, garbage, or records the caller no longer wants — is cut off
// the file and the truncation fsynced, so the next Append starts on a
// record boundary. It returns the number of records accepted and of bytes
// dropped. A missing file is an empty log.
func Recover(fsys FS, path string, fr Framing, accept func(payload []byte) bool) (kept int, dropped int64, err error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("durable: recover %s: %w", path, err)
	}
	off := 0
	for {
		payload, size, ok := fr.next(data[off:])
		if !ok || !accept(payload) {
			break
		}
		off += size
		kept++
	}
	if off == len(data) {
		return kept, 0, nil
	}
	f, err := fsys.OpenFile(path, os.O_WRONLY)
	if err != nil {
		return 0, 0, fmt.Errorf("durable: recover %s: %w", path, err)
	}
	if err = f.Truncate(int64(off)); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, 0, fmt.Errorf("durable: truncate torn tail of %s: %w", path, err)
	}
	return kept, int64(len(data) - off), nil
}
