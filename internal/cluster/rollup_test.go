package cluster

import (
	"fmt"
	"net/http/httptest"
	"regexp"
	"slices"
	"testing"

	"balarch/internal/server"
)

// TestPromRollupDeterministic: one rollup rendered twice gives the same
// bytes, with the per-route series in sorted route order.
func TestPromRollupDeterministic(t *testing.T) {
	roll := Rollup{Snapshot: server.Snapshot{Requests: map[string]int64{}}}
	for i := 0; i < 24; i++ {
		roll.Requests[fmt.Sprintf("POST /v1/route%02d", (i*7)%24)] = int64(i + 1)
	}
	render := func() string {
		w := httptest.NewRecorder()
		writePromRollup(w, &roll)
		return w.Body.String()
	}
	first := render()
	if second := render(); second != first {
		t.Fatalf("two renders of one rollup differ:\n%s\n---\n%s", first, second)
	}
	var routes []string
	re := regexp.MustCompile(`(?m)^balarch_cluster_requests_total\{route="([^"]+)"\}`)
	for _, m := range re.FindAllStringSubmatch(first, -1) {
		routes = append(routes, m[1])
	}
	if len(routes) != len(roll.Requests) || !slices.IsSorted(routes) {
		t.Fatalf("route series not one each in sorted order: %v", routes)
	}
}
