package durable

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// readAll collects the lines of r under cap max.
func readAll(r io.Reader, max int) (lines []string, skipped int, err error) {
	skipped, err = readLines(r, max, func(line []byte) error {
		lines = append(lines, string(line))
		return nil
	})
	return lines, skipped, err
}

func TestReadLinesSkipsAndCounts(t *testing.T) {
	input := "a\n\n  \nbb\r\n" + strings.Repeat("x", 9) + "\nccc\n" + strings.Repeat("y", 200000) + "\ntail"
	lines, skipped, err := readAll(strings.NewReader(input), 8)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "bb", "ccc", "tail"}; strings.Join(lines, "|") != strings.Join(want, "|") {
		t.Errorf("lines = %q, want %q", lines, want)
	}
	if skipped != 2 {
		t.Errorf("skipped = %d, want 2 (one just over the cap, one many buffers over)", skipped)
	}
}

func TestReadLinesCapIsInclusive(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int // lines returned
	}{
		{"12345678\n", 1}, {"12345678", 1}, {"123456789\n", 0}, {"123456789", 0},
	} {
		lines, skipped, _ := readAll(strings.NewReader(tc.in), 8)
		if len(lines) != tc.want || skipped != 1-tc.want {
			t.Errorf("%q: %d lines, %d skipped; want %d, %d", tc.in, len(lines), skipped, tc.want, 1-tc.want)
		}
	}
}

func TestReadLinesCallbackSkipsAndAborts(t *testing.T) {
	stop := errors.New("stop")
	var seen []string
	skipped, err := ReadLines(strings.NewReader("ok\nbad\nok\nstop\nnever\n"), func(line []byte) error {
		seen = append(seen, string(line))
		switch string(line) {
		case "bad":
			return ErrSkip
		case "stop":
			return stop
		}
		return nil
	})
	if skipped != 1 || !errors.Is(err, stop) || len(seen) != 4 {
		t.Errorf("skipped = %d, err = %v, saw %q", skipped, err, seen)
	}
}

func TestReadLinesSurfacesReadErrors(t *testing.T) {
	boom := errors.New("boom")
	lines, _, err := readAll(io.MultiReader(strings.NewReader("a\nb"), iotest.ErrReader(boom)), MaxLine)
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
	if len(lines) == 0 {
		t.Error("lines before the read error were lost")
	}
}

// FuzzReadLines checks the reader against the obvious split-and-filter
// definition, on a small cap and a one-byte reader so the over-long path
// and the buffer-refill path both run.
func FuzzReadLines(f *testing.F) {
	f.Add([]byte("a\nbb\n\n"), 4)
	f.Add([]byte("{\"k\":1}\n{\"k\":"), 16)
	f.Add(bytes.Repeat([]byte("z"), 300), 5)
	f.Fuzz(func(t *testing.T, data []byte, max int) {
		if max < 0 || max > 1<<16 {
			return
		}
		var want []string
		wantSkipped := 0
		for _, raw := range bytes.Split(data, []byte{'\n'}) {
			switch line := bytes.TrimSpace(raw); {
			case len(raw) > max:
				wantSkipped++
			case len(line) > 0:
				want = append(want, string(line))
			}
		}
		got, skipped, err := readAll(iotest.OneByteReader(bytes.NewReader(data)), max)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") || skipped != wantSkipped {
			t.Fatalf("cap %d over %q:\n got %q skipped %d\nwant %q skipped %d", max, data, got, skipped, want, wantSkipped)
		}
	})
}
