package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"balarch"
	"balarch/client"
	"balarch/internal/cluster"
)

// newNode starts one jobs-enabled server, drained and closed on test
// cleanup.
func newNode(t *testing.T, nodeID string) *httptest.Server {
	t.Helper()
	s := balarch.NewServer(balarch.ServerOptions{Parallelism: 2, NodeID: nodeID, StoreDir: t.TempDir()})
	if err := s.JobsErr(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	return srv
}

func TestSmokeAgainstRealHandler(t *testing.T) {
	srv := newNode(t, "")
	var errb bytes.Buffer
	if code := run(context.Background(), []string{"-url", srv.URL}, &errb); code != 0 {
		t.Fatalf("exit %d\n%s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "clientsmoke: OK") {
		t.Errorf("missing verdict: %s", errb.String())
	}
}

// TestSmokeAgainstGateway runs the identical check sequence against a
// two-node cluster behind a gateway: health, the merged GET /v1/ index,
// tracing, the sweep memo (ring-pinned to one owner), batch scatter, job-id
// routing, all of it. The gateway is a drop-in balarchd to an SDK client,
// and this is the gate.
func TestSmokeAgainstGateway(t *testing.T) {
	n1, n2 := newNode(t, "n1"), newNode(t, "n2")
	gw, err := cluster.New(cluster.Options{Nodes: []string{n1.URL, n2.URL}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	srv := httptest.NewServer(gw.Handler())
	defer srv.Close()
	var errb bytes.Buffer
	if code := run(context.Background(), []string{"-url", srv.URL}, &errb); code != 0 {
		t.Fatalf("exit %d\n%s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "clientsmoke: OK") {
		t.Errorf("missing verdict: %s", errb.String())
	}
}

func TestSmokeFailsAgainstNothing(t *testing.T) {
	var errb bytes.Buffer
	code := run(context.Background(), []string{"-url", "http://127.0.0.1:1", "-wait", "200ms"}, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1 against an unreachable daemon", code)
	}
	if !strings.Contains(errb.String(), "never became healthy") {
		t.Errorf("unexpected failure message: %s", errb.String())
	}
}

func TestSmokeCatchesWrongBehavior(t *testing.T) {
	// An imposter that 200s `{}` at everything must fail the first
	// semantic check, not pass vacuously.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()
	c, err := client.New(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	var errb bytes.Buffer
	err = smoke(context.Background(), c, time.Second, &errb)
	if err == nil || !strings.Contains(err.Error(), "healthz") {
		t.Fatalf("smoke against an imposter = %v, want a healthz failure", err)
	}
}

func TestBadFlags(t *testing.T) {
	var errb bytes.Buffer
	if code := run(context.Background(), []string{"-nope"}, &errb); code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if code := run(context.Background(), []string{"-url", "not-a-url"}, &errb); code != 1 {
		t.Errorf("bad url: exit %d, want 1", code)
	}
}
