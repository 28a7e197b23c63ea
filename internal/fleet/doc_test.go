package fleet

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"unico/internal/dist"
)

// hopTable renders ARCHITECTURE.md's table of every HTTP hop of a fleet
// deployment from the constants the code runs on, so the documented timeouts,
// thresholds and body cap cannot drift from the real ones.
func hopTable() string {
	limit := fmt.Sprintf("%d MiB", dist.MaxBodyBytes>>20)
	rows := [][4]string{
		{"master `dist.Client` → worker or router: `POST /v1/ppa`, `POST /v1/jobs/advance`, `POST /v1/jobs/release`",
			fmt.Sprintf("`dist.Options.Timeout`, default %v", dist.DefaultTimeout),
			limit,
			fmt.Sprintf("retryable error: sent again up to `MaxRetries` times (backoff from %v, doubling to %v, or the advertised `Retry-After`); an advance still failing charges the worker (%d in a row evict it) and moves to the next in the rotation",
				dist.DefaultRetryBackoff, dist.DefaultMaxBackoff, dist.DefaultEvictAfter)},
		{"master pool → evicted worker: `GET /v1/healthz`",
			"same client", limit,
			fmt.Sprintf("the worker stays evicted until the next probe (every %d new jobs)", dist.DefaultProbeEvery)},
		{"router forward → shard: the three routes above, `POST /v1/drain`, `POST /v1/undrain`",
			fmt.Sprintf("`fleet.Options.ForwardTimeout`, default %v", DefaultForwardTimeout),
			limit,
			fmt.Sprintf("no answer, an over-cap answer or a `5xx` charges the shard a failure (%d in a row mark it down) and the request walks on to the next ring successor; `503` + `Retry-After` is a refusal, passed over uncharged; any other answer is relayed as it came, status, `Content-Type` and bytes; a release goes to every shard not down, and one without a usable answer makes the router's answer a `502`", DefaultFailAfter)},
		{"router probe → shard: `GET /v1/healthz`",
			fmt.Sprintf("`fleet.Options.ProbeTimeout`, default %v (every %v)", DefaultProbeTimeout, DefaultProbeInterval),
			limit,
			"anything but a decodable `200` is a failure charged like a failed forward"},
		{"`unicoload` → worker or router: `POST /v1/ppa`",
			fmt.Sprintf("`-timeout`, default %v", dist.DefaultTimeout),
			limit,
			"counted under `errors`; `429`/`503` answers count under `shed`"},
	}
	var b strings.Builder
	b.WriteString("| hop | timeout | response cap | what a failure means |\n|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | %s | %s | %s |\n", r[0], r[1], r[2], r[3])
	}
	return b.String()
}

// TestArchitectureHopTable keeps ARCHITECTURE.md's hop table equal to the
// one the constants generate; on a mismatch it prints the table to paste.
func TestArchitectureHopTable(t *testing.T) {
	doc, err := os.ReadFile("../../ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	if want := hopTable(); !strings.Contains(string(doc), want) {
		t.Fatalf("ARCHITECTURE.md does not hold the hop table the code's constants generate:\n%s", want)
	}
}
