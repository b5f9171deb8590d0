package server

import (
	"encoding/json"
	"reflect"
	"testing"
)

// mergeAll folds nodes into a zero Snapshot the way the gateway rolls up.
func mergeAll(nodes ...Snapshot) Snapshot {
	var agg Snapshot
	for i := range nodes {
		agg.Merge(&nodes[i])
	}
	return agg
}

// TestSnapshotMergeRules pins one row per merge rule: counters, gauges,
// maps and buckets sum; quantiles and maxima take the larger; means are
// weighted by their counts; uptime is the oldest; the self-state is idle
// only if every node is.
func TestSnapshotMergeRules(t *testing.T) {
	rows := []struct {
		name  string
		nodes []Snapshot
		field func(*Snapshot) any
		want  any
	}{
		{"counters sum", []Snapshot{
			{InFlight: 1, Panics: 2, CacheHits: 3, CacheMisses: 1, StoreHits: 5, StoreMisses: 6, JobsDone: 7, JobsReplayed: 1, SchedPicks: 4, SchedSkips: 2},
			{InFlight: 2, Panics: 1, CacheHits: 1, CacheMisses: 3, StoreHits: 1, StoreMisses: 0, JobsDone: 3, JobsReplayed: 2, SchedPicks: 6, SchedSkips: 1},
		}, func(s *Snapshot) any {
			return [10]int64{s.InFlight, s.Panics, s.CacheHits, s.CacheMisses, s.StoreHits, s.StoreMisses, s.JobsDone, s.JobsReplayed, s.SchedPicks, s.SchedSkips}
		}, [10]int64{3, 3, 4, 4, 6, 6, 10, 3, 10, 3}},
		{"gauges sum", []Snapshot{
			{StoreBytes: 100, StoreEntries: 2, JobsQueued: 1, JobsRunning: 2, JobsFailed: 1, JobsCanceled: 0, SchedDrainBPS: 1.5, SchedRunningBytes: 10},
			{StoreBytes: 50, StoreEntries: 1, JobsQueued: 3, JobsRunning: 0, JobsFailed: 2, JobsCanceled: 4, SchedDrainBPS: 2.5, SchedRunningBytes: 20},
		}, func(s *Snapshot) any {
			return [8]float64{float64(s.StoreBytes), float64(s.StoreEntries), float64(s.JobsQueued), float64(s.JobsRunning),
				float64(s.JobsFailed), float64(s.JobsCanceled), s.SchedDrainBPS, float64(s.SchedRunningBytes)}
		}, [8]float64{150, 3, 4, 2, 3, 4, 4, 30}},
		{"hit rate is recomputed from the merged counters", []Snapshot{
			{CacheHits: 3, CacheMisses: 1, CacheHitRate: 0.75},
			{CacheHits: 0, CacheMisses: 4, CacheHitRate: 0},
		}, func(s *Snapshot) any { return s.CacheHitRate }, 0.375},
		{"request and status maps sum key by key", []Snapshot{
			{Requests: map[string]int64{"POST /v1/analyze": 3}, StatusClasses: map[string]int64{"2xx": 3}},
			{Requests: map[string]int64{"POST /v1/analyze": 1, "POST /v1/sweep": 2}, StatusClasses: map[string]int64{"2xx": 2, "4xx": 1}},
		}, func(s *Snapshot) any { return [2]map[string]int64{s.Requests, s.StatusClasses} },
			[2]map[string]int64{{"POST /v1/analyze": 4, "POST /v1/sweep": 2}, {"2xx": 5, "4xx": 1}}},
		{"histogram buckets sum", []Snapshot{
			{LatencyBuckets: []HistogramBucket{{0.001, 2}, {0.01, 1}, {-1, 0}}},
			{LatencyBuckets: []HistogramBucket{{0.001, 5}, {0.01, 0}, {-1, 1}}},
		}, func(s *Snapshot) any { return s.LatencyBuckets },
			[]HistogramBucket{{0.001, 7}, {0.01, 1}, {-1, 1}}},
		{"a bucket list of another length is left out", []Snapshot{
			{LatencyBuckets: []HistogramBucket{{0.001, 2}, {-1, 0}}},
			{LatencyBuckets: []HistogramBucket{{0.001, 5}, {0.01, 0}, {-1, 1}}},
		}, func(s *Snapshot) any { return s.LatencyBuckets },
			[]HistogramBucket{{0.001, 2}, {-1, 0}}},
		{"route quantiles and maxima take the larger, the mean is count-weighted", []Snapshot{
			{RouteLatency: map[string]RouteLatency{"POST /v1/sweep": {Count: 1, MeanSeconds: 0.4, P50Seconds: 0.5, P95Seconds: 0.5, P99Seconds: 0.5, MaxSeconds: 0.4}}},
			{RouteLatency: map[string]RouteLatency{"POST /v1/sweep": {Count: 3, MeanSeconds: 0.2, P50Seconds: 0.25, P95Seconds: 1, P99Seconds: 1, MaxSeconds: 0.9}}},
		}, func(s *Snapshot) any { return s.RouteLatency["POST /v1/sweep"] },
			RouteLatency{Count: 4, MeanSeconds: 0.25, P50Seconds: 0.5, P95Seconds: 1, P99Seconds: 1, MaxSeconds: 0.9}},
		{"the global mean is weighted by each node's requests", []Snapshot{
			{Requests: map[string]int64{"GET /healthz": 1}, LatencyMean: 0.5},
			{Requests: map[string]int64{"GET /healthz": 2, "POST /v1/sweep": 1}, LatencyMean: 0.25},
		}, func(s *Snapshot) any { return s.LatencyMean }, 0.3125},
		// Each node reports its own worst consecutive bypass; three nodes
		// whose worst case is 2 have a cluster worst case of 2, not 6.
		{"the worst scheduler wait is the largest, not the sum", []Snapshot{
			{SchedMaxWaitPicks: 2}, {SchedMaxWaitPicks: 2}, {SchedMaxWaitPicks: 2},
		}, func(s *Snapshot) any { return s.SchedMaxWaitPicks }, int64(2)},
		{"uptime is the oldest node's", []Snapshot{
			{UptimeSeconds: 10}, {UptimeSeconds: 30}, {UptimeSeconds: 20},
		}, func(s *Snapshot) any { return s.UptimeSeconds }, 30.0},
		{"policy is the first reported", []Snapshot{
			{}, {SchedPolicy: "balanced"}, {SchedPolicy: "fifo"},
		}, func(s *Snapshot) any { return s.SchedPolicy }, "balanced"},
		{"idle only if every node is idle", []Snapshot{
			{SchedSelfState: "idle"}, {SchedSelfState: "idle"}, {SchedSelfState: "idle"},
		}, func(s *Snapshot) any { return s.SchedSelfState }, "idle"},
		{"one busy node makes the cluster busy", []Snapshot{
			{SchedSelfState: "idle"}, {SchedSelfState: "memory-bound"}, {SchedSelfState: "idle"},
		}, func(s *Snapshot) any { return s.SchedSelfState }, "memory-bound"},
		{"the first busy verdict stands", []Snapshot{
			{SchedSelfState: "compute-bound"}, {SchedSelfState: "memory-bound"},
		}, func(s *Snapshot) any { return s.SchedSelfState }, "compute-bound"},
		{"a jobs-disabled node does not clear the verdict", []Snapshot{
			{SchedSelfState: "idle"}, {},
		}, func(s *Snapshot) any { return s.SchedSelfState }, "idle"},
		{"tenants sum field by field", []Snapshot{
			{Tenants: map[string]TenantSnapshot{"acme": {Requests: 3, RateLimited: 1, OverBudget: 0, JobMemInUse: 10, JobMemBudget: 100, SchedServed: 2}}},
			{},
			{Tenants: map[string]TenantSnapshot{
				"acme":   {Requests: 1, RateLimited: 0, OverBudget: 2, JobMemInUse: 5, JobMemBudget: 100, SchedServed: 1},
				"globex": {Requests: 7},
			}},
		}, func(s *Snapshot) any { return s.Tenants }, map[string]TenantSnapshot{
			"acme":   {Requests: 4, RateLimited: 1, OverBudget: 2, JobMemInUse: 15, JobMemBudget: 200, SchedServed: 3},
			"globex": {Requests: 7},
		}},
		{"untenanted nodes merge to no tenants section", []Snapshot{{}, {}},
			func(s *Snapshot) any { return s.Tenants == nil }, true},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			agg := mergeAll(r.nodes...)
			if got := r.field(&agg); !reflect.DeepEqual(got, r.want) {
				t.Errorf("merged = %#v, want %#v", got, r.want)
			}
		})
	}
}

// TestSnapshotMergeOfOneNode: merging a single live snapshot into an
// empty one reproduces its JSON fields.
func TestSnapshotMergeOfOneNode(t *testing.T) {
	_, h := newTestHandler(Options{Tenants: twoTenants()})
	doAs(t, h, "acme-key", "POST", "/v1/analyze", analyzeBody)
	doAs(t, h, "", "POST", "/v1/analyze", "{")
	var node Snapshot
	if w := do(h, "GET", "/metrics", ""); w.Code != 200 || json.Unmarshal(w.Body.Bytes(), &node) != nil {
		t.Fatalf("GET /metrics: %d %s", w.Code, w.Body.String())
	}
	if agg := mergeAll(node); !reflect.DeepEqual(agg, node) {
		t.Errorf("merge of one node:\n got %+v\nwant %+v", agg, node)
	}
}
