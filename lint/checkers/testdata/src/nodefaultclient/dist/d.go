// Package dist mirrors internal/dist: the one sanctioned HTTP transport
// package is exempt from nodefaultclient, so nothing here fires.
package dist

import "net/http"

func sanctioned() {
	_, _ = http.Get("http://example.com")
	_ = http.DefaultClient
	c := &http.Client{}
	req, _ := http.NewRequest(http.MethodGet, "http://example.com", nil)
	_, _ = c.Do(req)
}
