package logx

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"

	"unico/internal/runid"
)

// jsonLogger is the logger Setup would build for a process whose run is
// runID, writing to buf instead of stderr.
func jsonLogger(t *testing.T, buf *bytes.Buffer, runID string) *slog.Logger {
	t.Helper()
	logger, err := newLogger(buf, "json", "info", runID)
	if err != nil {
		t.Fatal(err)
	}
	return logger
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "": slog.LevelInfo,
		"warn": slog.LevelWarn, "warning": slog.LevelWarn, "ERROR": slog.LevelError,
	} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("unknown level accepted")
	}
}

func TestSetupRejectsBadInputs(t *testing.T) {
	if _, err := Setup("xml", "info", ""); err == nil {
		t.Error("unknown format accepted")
	}
	if _, err := Setup("text", "loud", ""); err == nil {
		t.Error("unknown level accepted")
	}
}

// TestRunIDAttachedAtSetup: the run ID is the logger's, given when it is
// built — a process with no run logs no run_id, and nothing process-wide can
// change either afterwards.
func TestRunIDAttachedAtSetup(t *testing.T) {
	var bare, run bytes.Buffer
	jsonLogger(t, &bare, "").Info("no run")
	jsonLogger(t, &run, "deadbeef").Info("during run")

	var first, second map[string]any
	if err := json.Unmarshal(bytes.TrimSpace(bare.Bytes()), &first); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(bytes.TrimSpace(run.Bytes()), &second); err != nil {
		t.Fatal(err)
	}
	if _, ok := first["run_id"]; ok {
		t.Errorf("record of a process without a run carries run_id: %v", first)
	}
	if second["run_id"] != "deadbeef" {
		t.Errorf("run_id = %v, want deadbeef", second["run_id"])
	}
}

func TestRunIDSurvivesWithAttrsAndGroup(t *testing.T) {
	var buf bytes.Buffer
	logger := jsonLogger(t, &buf, "cafe0123").With("component", "test").WithGroup("g")
	logger.LogAttrs(context.Background(), slog.LevelInfo, "m", slog.String("k", "v"))

	var rec map[string]any
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["component"] != "test" || rec["run_id"] != "cafe0123" {
		t.Errorf("run_id or component lost after With/WithGroup: %v", rec)
	}
	if g, ok := rec["g"].(map[string]any); !ok || g["k"] != "v" {
		t.Errorf("grouped attribute lost: %v", rec)
	}
}

func TestAccessLogCarriesClientRunID(t *testing.T) {
	var buf bytes.Buffer
	logger := jsonLogger(t, &buf, "")
	h := AccessLog(logger, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	}))

	req := httptest.NewRequest("POST", "/v1/ppa", nil)
	req.Header.Set(runid.Header, "feed4242")
	h.ServeHTTP(httptest.NewRecorder(), req)

	var rec map[string]any
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["client_run_id"] != "feed4242" {
		t.Errorf("client_run_id = %v, want feed4242", rec["client_run_id"])
	}
	if rec["method"] != "POST" || rec["path"] != "/v1/ppa" || rec["status"] != float64(http.StatusTeapot) {
		t.Errorf("access record incomplete: %v", rec)
	}

	// Without the header there must be no client_run_id key at all.
	buf.Reset()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/v1/healthz", nil))
	var plain map[string]any
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &plain); err != nil {
		t.Fatal(err)
	}
	if _, ok := plain["client_run_id"]; ok {
		t.Errorf("client_run_id present without header: %v", plain)
	}
}
