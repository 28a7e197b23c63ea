// Package a exercises nodefaultclient: every http.DefaultClient ride-along
// and timeoutless client literal fires outside the dist package.
package a

import (
	"context"
	"net/http"
	"time"
)

func violations() {
	_, _ = http.Get("http://example.com")    // want `http\.Get uses http\.DefaultClient`
	_, _ = http.Post("u", "text/plain", nil) // want `http\.Post uses http\.DefaultClient`
	_, _ = http.Head("u")                    // want `http\.Head uses http\.DefaultClient`
	_, _ = http.PostForm("u", nil)           // want `http\.PostForm uses http\.DefaultClient`
	_, _ = http.DefaultClient.Get("u")       // want `http\.DefaultClient has no timeout`
	_ = &http.Client{}                       // want `http\.Client literal without Timeout`
	_ = &http.Client{Transport: nil}         // want `http\.Client literal without Timeout`
	_ = http.Client{CheckRedirect: nil}      // want `http\.Client literal without Timeout`
}

// handRolled: building or sending a request outside the sanctioned transport
// fires even on a client with a timeout.
func handRolled(ctx context.Context, c *http.Client) {
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, "u", nil) // want `http\.NewRequestWithContext hand-rolls an exchange`
	_, _ = http.NewRequest(http.MethodGet, "u", nil)                    // want `http\.NewRequest hand-rolls an exchange`
	_, _ = c.Do(req)                                                    // want `\(\*http\.Client\)\.Do hand-rolls an exchange`
	byValue := http.Client{Timeout: time.Second}
	_, _ = byValue.Do(req) // want `\(\*http\.Client\)\.Do hand-rolls an exchange`
}

// doer's Do is not an HTTP client's.
type doer struct{}

func (doer) Do(*http.Request) {}

func fine() {
	doer{}.Do(nil)
	c := &http.Client{Timeout: 10 * time.Second}
	_ = c
	// Server-side types are not clients.
	_ = &http.Server{ReadTimeout: time.Second}
}

func documentedAllow() {
	_, _ = http.Get("http://example.com") //unicolint:allow nodefaultclient fixture proves the allow works here too
}
