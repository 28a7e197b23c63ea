package perfprof

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// PhasesHandler serves the active profiler's phase report: a fixed-width
// text table by default, JSON with ?format=json.
func PhasesHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		stats := Active().Report()
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(stats)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "%-44s %8s %12s %12s %10s %10s %10s\n",
			"PHASE", "COUNT", "WALL(s)", "SELF(s)", "P50(s)", "P95(s)", "MAX(s)")
		for _, s := range stats {
			fmt.Fprintf(w, "%-44s %8d %12.6f %12.6f %10.6f %10.6f %10.6f\n",
				s.Path, s.Count, s.WallSeconds, s.SelfWallSeconds,
				s.P50Seconds, s.P95Seconds, s.MaxSeconds)
		}
	})
}
