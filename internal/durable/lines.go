package durable

import (
	"bufio"
	"bytes"
	"errors"
	"io"
)

// MaxLine caps one line of a JSONL artifact for every reader in the tree
// (flight records carry whole Pareto fronts per line, hence the size).
const MaxLine = 64 << 20

// ErrSkip is what a ReadLines callback returns for a line it cannot decode.
var ErrSkip = errors.New("durable: skip line")

// ReadLines calls fn with each non-blank line of a JSONL artifact, with the
// tolerance its crash model needs: a final line without a newline is still
// offered (fn rejects it if it is torn), and a line over MaxLine is skipped
// instead of aborting the read. skipped counts those plus the lines fn
// returned ErrSkip for; any other error from fn, or a read error, ends the
// read and is returned. line is only valid during the call.
func ReadLines(r io.Reader, fn func(line []byte) error) (skipped int, err error) {
	return readLines(r, MaxLine, fn)
}

func readLines(r io.Reader, max int, fn func(line []byte) error) (skipped int, err error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var line []byte
	for err == nil {
		line = line[:0]
		long := false
		for {
			var chunk []byte
			chunk, err = br.ReadSlice('\n')
			if !long {
				line = append(line, chunk...)
				long = len(line) > max+1 // over the cap even if the last byte is the newline: stop buffering
			}
			if !errors.Is(err, bufio.ErrBufferFull) {
				break
			}
		}
		if long || len(bytes.TrimSuffix(line, []byte{'\n'})) > max {
			skipped++
		} else if trimmed := bytes.TrimSpace(line); len(trimmed) > 0 {
			if ferr := fn(trimmed); errors.Is(ferr, ErrSkip) {
				skipped++
			} else if ferr != nil {
				return skipped, ferr
			}
		}
	}
	if errors.Is(err, io.EOF) {
		err = nil
	}
	return skipped, err
}
