package cluster

// The cluster /metrics rollup: every node's Snapshot fetched in
// parallel and merged (server.Snapshot.Merge) into one node-shaped
// value, plus a cluster section with per-node health and the gateway's
// own traffic counters. Embedding server.Snapshot keeps the rollup's
// flat keys identical to a node's, so anything that reads node metrics —
// the loadgen drain gate, dashboards — reads gateway metrics unchanged.

import (
	"encoding/json"
	"maps"
	"net/http"
	"slices"
	"time"

	"balarch/internal/obs"
	"balarch/internal/server"
)

// NodeStatus is one member's row in the cluster section.
type NodeStatus struct {
	Name     string `json:"name"`
	Healthy  bool   `json:"healthy"`
	InFlight int64  `json:"in_flight"`
	// Proxied and Errors are the gateway's own accounting: requests
	// relayed to the node and transport failures against it.
	Proxied int64 `json:"proxied_total"`
	Errors  int64 `json:"proxy_errors_total"`
	// Reporting marks whether this rollup includes the node's snapshot
	// (a healthy node can still miss one scrape).
	Reporting bool `json:"reporting"`
}

// ClusterInfo is the rollup's cluster section.
type ClusterInfo struct {
	Nodes                int          `json:"nodes"`
	Healthy              int          `json:"healthy"`
	GatewayUptimeSeconds float64      `json:"gateway_uptime_seconds"`
	NodeStatus           []NodeStatus `json:"node_status"`
}

// Rollup is the gateway's GET /metrics body: the nodes' Snapshots merged,
// plus the cluster section.
type Rollup struct {
	server.Snapshot
	Cluster ClusterInfo `json:"cluster"`
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	nodes, bodies := g.nodeGet(r.Context(), r.Header, "/metrics")
	roll := Rollup{
		Snapshot: server.Snapshot{
			Requests:      map[string]int64{},
			RouteLatency:  map[string]server.RouteLatency{},
			StatusClasses: map[string]int64{},
		},
		Cluster: ClusterInfo{
			Nodes:                len(g.m.nodes),
			Healthy:              len(g.m.healthySnapshot()),
			GatewayUptimeSeconds: time.Since(g.start).Seconds(),
		},
	}
	reporting := make(map[*Node]bool, len(nodes))
	for i, data := range bodies {
		var s server.Snapshot
		if data == nil || json.Unmarshal(data, &s) != nil {
			continue
		}
		reporting[nodes[i]] = true
		roll.Merge(&s)
	}
	for _, n := range g.m.nodes {
		roll.Cluster.NodeStatus = append(roll.Cluster.NodeStatus, NodeStatus{
			Name:      n.name,
			Healthy:   n.healthy.Load(),
			InFlight:  n.inflight.Load(),
			Proxied:   n.proxied.Load(),
			Errors:    n.proxyErrors.Load(),
			Reporting: reporting[n],
		})
	}
	if r.URL.Query().Get("format") == "prometheus" {
		writePromRollup(w, &roll)
		return
	}
	g.writeJSON(w, http.StatusOK, roll)
}

// writePromRollup renders the rollup as Prometheus text: the cluster
// gauges, per-node health and traffic, and the merged counters the JSON
// body carries — through the same zero-intermediate PromEnc the nodes
// use. Series are emitted in a fixed order (routes sorted), so equal
// rollups render equal bytes.
func writePromRollup(w http.ResponseWriter, roll *Rollup) {
	bb := getBuf()
	defer putBuf(bb)
	e := obs.PromEnc{B: bb.b[:0]}

	e.Header("balarch_cluster_nodes", "Configured cluster members.", "gauge")
	e.Begin("balarch_cluster_nodes")
	e.Int(int64(roll.Cluster.Nodes))
	e.Header("balarch_cluster_healthy_nodes", "Members currently in the serving set.", "gauge")
	e.Begin("balarch_cluster_healthy_nodes")
	e.Int(int64(roll.Cluster.Healthy))
	e.Header("balarch_gateway_uptime_seconds", "Gateway uptime.", "gauge")
	e.Begin("balarch_gateway_uptime_seconds")
	e.Value(roll.Cluster.GatewayUptimeSeconds)

	e.Header("balarch_cluster_node_up", "Per-node health as seen by the gateway.", "gauge")
	for _, ns := range roll.Cluster.NodeStatus {
		e.Begin("balarch_cluster_node_up")
		e.Label("node", ns.Name)
		if ns.Healthy {
			e.Int(1)
		} else {
			e.Int(0)
		}
	}
	e.Header("balarch_cluster_node_in_flight", "Requests the gateway currently has in flight per node.", "gauge")
	for _, ns := range roll.Cluster.NodeStatus {
		e.Begin("balarch_cluster_node_in_flight")
		e.Label("node", ns.Name)
		e.Int(ns.InFlight)
	}
	e.Header("balarch_gateway_proxied_total", "Requests relayed per node.", "counter")
	for _, ns := range roll.Cluster.NodeStatus {
		e.Begin("balarch_gateway_proxied_total")
		e.Label("node", ns.Name)
		e.Int(ns.Proxied)
	}
	e.Header("balarch_gateway_proxy_errors_total", "Transport failures per node.", "counter")
	for _, ns := range roll.Cluster.NodeStatus {
		e.Begin("balarch_gateway_proxy_errors_total")
		e.Label("node", ns.Name)
		e.Int(ns.Errors)
	}

	e.Header("balarch_cluster_requests_total", "Completed requests summed across nodes, by route.", "counter")
	for _, route := range slices.Sorted(maps.Keys(roll.Requests)) {
		e.Begin("balarch_cluster_requests_total")
		e.Label("route", route)
		e.Int(roll.Requests[route])
	}
	e.Header("balarch_cluster_sweep_cache_hits_total", "Sweep memo hits summed across nodes.", "counter")
	e.Begin("balarch_cluster_sweep_cache_hits_total")
	e.Int(roll.CacheHits)
	e.Header("balarch_cluster_sweep_cache_misses_total", "Sweep memo misses summed across nodes.", "counter")
	e.Begin("balarch_cluster_sweep_cache_misses_total")
	e.Int(roll.CacheMisses)
	e.Header("balarch_cluster_jobs", "Cluster job gauges by state.", "gauge")
	for _, st := range [...]struct {
		name string
		v    int64
	}{
		{"queued", roll.JobsQueued}, {"running", roll.JobsRunning},
		{"done", roll.JobsDone}, {"failed", roll.JobsFailed},
		{"canceled", roll.JobsCanceled},
	} {
		e.Begin("balarch_cluster_jobs")
		e.Label("state", st.name)
		e.Int(st.v)
	}

	if n := len(roll.LatencyBuckets); n > 0 {
		bounds := make([]float64, 0, n)
		counts := make([]int64, 0, n)
		var over int64
		for _, hb := range roll.LatencyBuckets {
			if hb.LeSeconds < 0 {
				over = hb.Count
				continue
			}
			bounds = append(bounds, hb.LeSeconds)
			counts = append(counts, hb.Count)
		}
		var totalReq int64
		for _, c := range roll.Requests {
			totalReq += c
		}
		e.Header("balarch_cluster_request_seconds", "Request latency summed across nodes.", "histogram")
		e.Histogram("balarch_cluster_request_seconds", "", "",
			bounds, counts, over, roll.LatencyMean*float64(totalReq))
	}

	bb.b = e.B
	w.Header().Set("Content-Type", obs.PromContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(e.B)
}
