package cliflags

import (
	"context"
	"flag"
	"io"
	"path/filepath"
	"reflect"
	"testing"

	"unico/internal/evalcache"
	"unico/internal/ppa"
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
		{Pprof, []decl{{"pprof-dir", ""}, {"pprof-interval", "0s"}}},
		{SpanLog, []decl{{"span-log", ""}}},
		{Metrics, []decl{{"metrics-addr", ""}}},
		{Cache, []decl{{"cache", "false"}, {"cache-size", "0"}, {"cache-file", ""}}},
	}
	binaries := map[string]Group{
		"unico":       Log | Pprof | SpanLog | Metrics | Cache,
		"experiments": Log | Pprof | SpanLog | Metrics | Cache,
		"ppaserver":   Log | Pprof | SpanLog | Cache,
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

func TestCacheWanted(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want bool
	}{
		{nil, false},
		{[]string{"-cache"}, true},
		{[]string{"-cache-size", "64"}, true},
		{[]string{"-cache-file", "ppa.jsonl"}, true},
	} {
		if got := parse(t, Cache, tc.args...).CacheWanted(); got != tc.want {
			t.Errorf("%v: CacheWanted = %v, want %v", tc.args, got, tc.want)
		}
	}
}

func TestStartRejectsIntervalWithoutDir(t *testing.T) {
	if err := parse(t, Pprof, "-pprof-interval", "30s").Start(context.Background(), "client"); err == nil {
		t.Error("-pprof-interval without -pprof-dir accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // stops the interval capture
	s := parse(t, Pprof, "-pprof-interval", "30s", "-pprof-dir", t.TempDir())
	if err := s.Start(ctx, "client"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Capture == nil || s.Live != nil {
		t.Errorf("Capture %v, Live %v; want a capture and no dashboard store", s.Capture, s.Live)
	}
}

// A cache warm-started from -cache-file is saved back there on Close, with
// what the process added to it.
func TestCacheFileRoundTrip(t *testing.T) {
	file := filepath.Join(t.TempDir(), "ppa.jsonl")
	keys := []evalcache.Key{{1}, {2}}
	met := ppa.Metrics{LatencyMs: 9, PowerMW: 8, AreaMM2: 7, EnergyUJ: 6}

	for i, key := range keys {
		s := parse(t, Cache, "-cache-file", file)
		if err := s.Start(context.Background(), "client"); err != nil {
			t.Fatal(err)
		}
		cache, err := s.OpenCache()
		if err != nil || cache == nil {
			t.Fatalf("OpenCache = %v, %v", cache, err)
		}
		if cache.Len() != i {
			t.Errorf("process %d warm-started %d entries, want %d", i, cache.Len(), i)
		}
		if _, err := cache.Do(key, evalcache.EngineMaestro, func() (ppa.Metrics, error) { return met, nil }); err != nil {
			t.Fatal(err)
		}
		s.Close()
	}

	saved := evalcache.New(0)
	if n, err := saved.LoadFile(file); n != len(keys) || err != nil {
		t.Fatalf("saved file holds %d entries (%v), want %d", n, err, len(keys))
	}
	for _, key := range keys {
		if got, err, ok := saved.Get(key); !ok || err != nil || !reflect.DeepEqual(got, met) {
			t.Errorf("key %v: %v, %v, %v", key, got, err, ok)
		}
	}

	s := parse(t, Cache)
	if err := s.Start(context.Background(), "client"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if cache, err := s.OpenCache(); cache != nil || err != nil {
		t.Errorf("no cache flag: OpenCache = %v, %v", cache, err)
	}
}
