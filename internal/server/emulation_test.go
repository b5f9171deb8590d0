package server

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func emulate(t *testing.T, body string) (*httptest.ResponseRecorder, *EmulationResponse) {
	t.Helper()
	h := New(Options{Parallelism: 2}).Handler()
	req := httptest.NewRequest(http.MethodPost, "/v1/emulation", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		return w, nil
	}
	var resp EmulationResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad emulation response: %v\n%s", err, w.Body.String())
	}
	return w, &resp
}

func TestEmulationPerfectInterconnectPaysModulePort(t *testing.T) {
	// Even with network_bw == module_bw an io-bound computation pays for
	// emulation: working sets re-fetch through the module port at the
	// module's achievable ratio R(m), not the aggregate's R(N·m), so the
	// module boundary binds and efficiency is R(m)/R(N·m) < 1.
	w, resp := emulate(t, `{"c": 100e6, "computation": {"name": "fft"},
		"modules": 8, "module_m": 65536, "module_bw": 1e6}`)
	if resp == nil {
		t.Fatalf("emulation = %d: %s", w.Code, w.Body.String())
	}
	if resp.NetworkBW != 1e6 {
		t.Fatalf("network_bw did not default to module_bw: %v", resp.NetworkBW)
	}
	if resp.EmulatedCapacity != 8*65536 {
		t.Fatalf("emulated_capacity = %v", resp.EmulatedCapacity)
	}
	if resp.BindingBoundary != 1 {
		t.Fatalf("binding boundary = %d, want 1 (the module port binds at equal bandwidths)",
			resp.BindingBoundary)
	}
	want := resp.Emulated.AchievableRatio / resp.Ideal.AchievableRatio
	if resp.Efficiency <= 0 || resp.Efficiency >= 1 ||
		math.Abs(resp.Efficiency-want) > 1e-9 {
		t.Fatalf("perfect-interconnect efficiency = %v, want R(m)/R(Nm) = %v", resp.Efficiency, want)
	}
	if len(resp.Boundaries) != 2 {
		t.Fatalf("boundaries = %d, want 2 (module, network)", len(resp.Boundaries))
	}
	if resp.Boundaries[0].Name != "module" || resp.Boundaries[1].Name != "network" {
		t.Fatalf("boundary names %q, %q", resp.Boundaries[0].Name, resp.Boundaries[1].Name)
	}
}

func TestEmulationComputeBoundIsFree(t *testing.T) {
	// When even the interconnect feeds the PE faster than it computes,
	// both machines run at full utilization: emulation is free.
	w, resp := emulate(t, `{"c": 1e3, "computation": {"name": "matmul"},
		"modules": 4, "module_m": 4096, "module_bw": 1e6, "network_bw": 1e5}`)
	if resp == nil {
		t.Fatalf("emulation = %d: %s", w.Code, w.Body.String())
	}
	if resp.Emulated.State != "compute-bound" || resp.Ideal.State != "compute-bound" {
		t.Fatalf("states = %q / %q, want compute-bound", resp.Emulated.State, resp.Ideal.State)
	}
	if resp.Emulated.Utilization != 1 || resp.Ideal.Utilization != 1 {
		t.Fatalf("utilizations = %v / %v, want 1", resp.Emulated.Utilization, resp.Ideal.Utilization)
	}
	if resp.Efficiency != 1 {
		t.Fatalf("compute-bound efficiency = %v, want 1", resp.Efficiency)
	}
}

func TestEmulationSlowNetworkCostsEfficiency(t *testing.T) {
	// A 10× slower interconnect on an io-bound computation shifts the
	// binding boundary to the network and prices the emulation below the
	// module-port cost alone.
	w, resp := emulate(t, `{"c": 100e6, "computation": {"name": "fft"},
		"modules": 8, "module_m": 65536, "module_bw": 1e6, "network_bw": 1e5}`)
	if resp == nil {
		t.Fatalf("emulation = %d: %s", w.Code, w.Body.String())
	}
	if resp.BindingBoundary != 2 {
		t.Fatalf("binding boundary = %d, want 2 (the interconnect binds)", resp.BindingBoundary)
	}
	if resp.Efficiency <= 0 || resp.Efficiency >= 1 {
		t.Fatalf("slow-network efficiency = %v, want strictly inside (0, 1)", resp.Efficiency)
	}
	if resp.Emulated.Utilization >= resp.Ideal.Utilization {
		t.Fatalf("emulated utilization %v not below ideal %v",
			resp.Emulated.Utilization, resp.Ideal.Utilization)
	}
	want := resp.Emulated.Utilization / resp.Ideal.Utilization
	if math.Abs(resp.Efficiency-want) > 1e-9 {
		t.Fatalf("efficiency = %v, want utilization ratio %v", resp.Efficiency, want)
	}
}

func TestEmulationSingleModuleIsTheFlatMachine(t *testing.T) {
	w, resp := emulate(t, `{"c": 100e6, "computation": {"name": "matmul"},
		"modules": 1, "module_m": 4096, "module_bw": 1e6}`)
	if resp == nil {
		t.Fatalf("emulation = %d: %s", w.Code, w.Body.String())
	}
	if len(resp.Boundaries) != 1 {
		t.Fatalf("single module produced %d boundaries, want 1", len(resp.Boundaries))
	}
	if math.Abs(resp.Efficiency-1) > 1e-9 {
		t.Fatalf("single-module efficiency = %v, want 1", resp.Efficiency)
	}
	if resp.Emulated.AchievableRatio != resp.Ideal.AchievableRatio {
		t.Fatalf("single module: emulated %v != ideal %v",
			resp.Emulated.AchievableRatio, resp.Ideal.AchievableRatio)
	}
}

func TestEmulationValidation(t *testing.T) {
	h := New(Options{Parallelism: 2}).Handler()
	for _, tc := range []struct {
		name, body string
		status     int
		code       string
	}{
		{"zero modules",
			`{"c": 1e6, "computation": {"name": "fft"}, "modules": 0, "module_m": 1024, "module_bw": 1e6}`,
			422, "invalid_argument"},
		{"over module cap",
			`{"c": 1e6, "computation": {"name": "fft"}, "modules": 2097152, "module_m": 1024, "module_bw": 1e6}`,
			422, "invalid_argument"},
		{"network faster than module port",
			`{"c": 1e6, "computation": {"name": "fft"}, "modules": 4, "module_m": 1024, "module_bw": 1e6, "network_bw": 2e6}`,
			422, "non_monotone_hierarchy"},
		{"unknown computation",
			`{"c": 1e6, "computation": {"name": "nope"}, "modules": 4, "module_m": 1024, "module_bw": 1e6}`,
			422, "unknown_computation"},
		{"negative max_memory",
			`{"c": 1e6, "computation": {"name": "fft"}, "modules": 4, "module_m": 1024, "module_bw": 1e6, "max_memory": -5}`,
			422, "invalid_argument"},
		{"unknown field",
			`{"c": 1e6, "computation": {"name": "fft"}, "modules": 4, "module_m": 1024, "module_bw": 1e6, "bogus": 1}`,
			400, "bad_json"},
	} {
		req := httptest.NewRequest(http.MethodPost, "/v1/emulation", strings.NewReader(tc.body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != tc.status {
			t.Fatalf("%s: status = %d, want %d: %s", tc.name, w.Code, tc.status, w.Body.String())
		}
		var env struct {
			Error ErrorBody `json:"error"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if env.Error.Code != tc.code {
			t.Fatalf("%s: code = %q, want %q (%s)", tc.name, env.Error.Code, tc.code, env.Error.Message)
		}
	}
}

func TestEmulationCoreMatchesHierarchyAnalyze(t *testing.T) {
	// The emulated side must be exactly what /v1/analyze says about the
	// equivalent two-level hierarchy — one machinery, two doors.
	s := New(Options{Parallelism: 2})
	ctx := context.Background()
	em, apiErr := s.emulation(ctx, &EmulationRequest{
		C: 100e6, Computation: ComputationDTO{Name: "fft"},
		Modules: 4, ModuleM: 65536, ModuleBW: 1e6, NetworkBW: 2e5,
	})
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	an, apiErr := s.analyze(ctx, &AnalyzeRequest{
		PE:          PEDTO{C: 100e6},
		Computation: ComputationDTO{Name: "fft"},
		Levels: []LevelDTO{
			{Name: "module", BW: 1e6, M: 65536},
			{Name: "network", BW: 2e5, M: 3 * 65536},
		},
	})
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	if em.Emulated.AchievableRatio != an.AchievableRatio ||
		em.Emulated.State != an.State ||
		em.BindingBoundary != an.BindingBoundary {
		t.Fatalf("emulation diverged from hierarchy analyze:\n%+v\nvs %+v", em.Emulated, an)
	}
}
