package perfprof

import (
	"net/http/httptest"
	"strings"
	"testing"
)

func TestPhasesHandler(t *testing.T) {
	p := New()
	restore := SetActive(p)
	defer restore()
	p.Begin("gp.fit").End()

	rec := httptest.NewRecorder()
	PhasesHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/phases", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "gp.fit") {
		t.Errorf("text phases: status %d body %q", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	PhasesHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/phases?format=json", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("json phases content-type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), `"path":"gp.fit"`) {
		t.Errorf("json phases body %q missing gp.fit", rec.Body.String())
	}
}
