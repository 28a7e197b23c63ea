package cliflags

import (
	"context"
	"flag"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"unico/internal/disttrace"
)

func parse(t *testing.T, groups Group, args ...string) *Shared {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs, groups)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

// The names and defaults below were captured from the flag declarations of
// the four main.go files before they shared this package; `-h` of every
// binary must keep printing them.
func TestRegisteredNamesAndDefaults(t *testing.T) {
	type decl struct{ name, def string }
	groupFlags := []struct {
		group Group
		flags []decl
	}{
		{Log, []decl{{"log-format", "text"}, {"log-level", "info"}}},
		{SpanLog, []decl{{"span-log", ""}}},
		{Metrics, []decl{{"metrics-addr", ""}}},
	}
	binaries := map[string]Group{
		"unico":       Log | SpanLog | Metrics,
		"experiments": Log | SpanLog | Metrics,
		"ppaserver":   Log | SpanLog,
		"unicoload":   SpanLog,
	}
	for bin, groups := range binaries {
		var want []decl
		for _, g := range groupFlags {
			if groups&g.group != 0 {
				want = append(want, g.flags...)
			}
		}
		fs := flag.NewFlagSet(bin, flag.ContinueOnError)
		Register(fs, groups)
		got := map[string]string{}
		fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
		if len(got) != len(want) {
			t.Errorf("%s: registered %v, want %v", bin, got, want)
		}
		for _, d := range want {
			if def, ok := got[d.name]; !ok || def != d.def {
				t.Errorf("%s: -%s default %q (registered=%v), want %q", bin, d.name, def, ok, d.def)
			}
		}
	}
}

// TestDebugMuxRouteSet pins the debug surface every binary serves: metrics,
// runtime profiles and the phase tree, and no second route for any of them.
func TestDebugMuxRouteSet(t *testing.T) {
	s := parse(t, Log|SpanLog|Metrics)
	if err := s.Start(context.Background(), "client"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for _, c := range []struct {
		path string
		code int
	}{
		{"/metrics", http.StatusOK},
		{"/debug/pprof/", http.StatusOK},
		{"/debug/pprof/heap", http.StatusOK},
		{"/debug/unico/phases", http.StatusOK},
		{"/debug/unico", http.StatusNotFound},
		{"/debug/vars", http.StatusNotFound},
		{"/debug/unico/capture", http.StatusNotFound},
	} {
		rec := httptest.NewRecorder()
		DebugMux().ServeHTTP(rec, httptest.NewRequest("GET", c.path, nil))
		if rec.Code != c.code {
			t.Errorf("GET %s = %d, want %d", c.path, rec.Code, c.code)
		}
	}
}

// TestCloseLogsSpanLogWriteFailure: a span log that stopped recording
// mid-run is reported on the log when the process closes it, not dropped.
// /dev/full takes the open and refuses every write.
func TestCloseLogsSpanLogWriteFailure(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	stderr, err := os.Create(t.TempDir() + "/stderr")
	if err != nil {
		t.Fatal(err)
	}
	savedStderr, savedLogger, savedRec := os.Stderr, slog.Default(), disttrace.Active()
	t.Cleanup(func() {
		os.Stderr = savedStderr
		slog.SetDefault(savedLogger)
		disttrace.Enable(savedRec)
	})
	os.Stderr = stderr // Start's logger writes here

	s := parse(t, Log|SpanLog, "-span-log", "/dev/full")
	if err := s.Start(context.Background(), "client"); err != nil {
		t.Fatal(err)
	}
	disttrace.StartSpan("run-1", disttrace.SpanContext{}, "client", "/v1/ppa").End("ok", nil)
	s.Close()

	out, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "span log failed") || !strings.Contains(string(out), "no space left") {
		t.Errorf("closing a span log that could not write logged:\n%s", out)
	}
}
