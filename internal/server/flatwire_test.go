package server

// Byte goldens for the flat (one-level) wire shapes of analyze and roofline.
// The flat requests are served by the hierarchy code as one-level stacks;
// these records pin every byte the flat API answers — success bodies, the
// 422 envelopes, and the same requests folded into one /v1/batch — so the
// adapter can never drift from the pre-hierarchy wire format. Regenerate
// (only for a deliberate wire change) with
//
//	go test ./internal/server -run TestFlatWireGolden -update

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files with the current output")

// flatWireCases are the flat requests the golden pins, in file order.
var flatWireCases = []struct {
	name, op, body string
}{
	{"analyze fft io-bound", "analyze",
		`{"pe": {"c": 50e6, "io": 1e6, "m": 4096}, "computation": {"name": "fft"}}`},
	{"analyze matmul balanced", "analyze",
		`{"pe": {"c": 64e6, "io": 1e6, "m": 4096}, "computation": {"name": "matmul"}}`},
	{"analyze matmul compute-bound", "analyze",
		`{"pe": {"c": 10e6, "io": 1e6, "m": 4096}, "computation": {"name": "matmul"}}`},
	{"analyze grid dim 3", "analyze",
		`{"pe": {"c": 1e6, "io": 2e6, "m": 64}, "computation": {"name": "grid", "dim": 3}}`},
	{"analyze sorting", "analyze",
		`{"pe": {"c": 8e6, "io": 1e6, "m": 1024}, "computation": {"name": "sorting"}}`},
	{"analyze matvec not rebalanceable", "analyze",
		`{"pe": {"c": 8e6, "io": 1e6, "m": 1024}, "computation": {"name": "matvec"}}`},
	{"analyze convolution 32 taps", "analyze",
		`{"pe": {"c": 3e6, "io": 1e5, "m": 512}, "computation": {"name": "convolution", "taps": 32}}`},
	{"analyze triangularization under small cap", "analyze",
		`{"pe": {"c": 1e9, "io": 1e6, "m": 64}, "computation": {"name": "triangularization"}, "max_memory": 100}`},
	{"analyze spmv tiny PE", "analyze",
		`{"pe": {"c": 1, "io": 1, "m": 1}, "computation": {"name": "spmv"}}`},
	{"analyze invalid io", "analyze",
		`{"pe": {"c": 1e6, "io": 0, "m": 64}, "computation": {"name": "fft"}}`},
	{"analyze invalid c", "analyze",
		`{"pe": {"c": -5, "io": 1e6, "m": 64}, "computation": {"name": "matmul"}}`},
	{"analyze unknown computation", "analyze",
		`{"pe": {"c": 1e6, "io": 1e6, "m": 64}, "computation": {"name": "nope"}}`},
	{"roofline three paths", "roofline",
		`{"pe": {"c": 64e6, "io": 1e6, "m": 4096}, "computations": [{"name": "matmul"}, {"name": "fft"}, {"name": "matvec"}], "mem_lo": 16, "mem_hi": 65536}`},
	{"roofline with chart", "roofline",
		`{"pe": {"c": 64e6, "io": 1e6, "m": 4096}, "computations": [{"name": "matmul"}, {"name": "sorting"}], "mem_lo": 16, "mem_hi": 1048576, "step": 8, "chart": true}`},
	{"roofline grid step 2", "roofline",
		`{"pe": {"c": 5e6, "io": 1e6, "m": 64}, "computations": [{"name": "grid", "dim": 2}], "mem_lo": 4, "mem_hi": 100, "step": 2}`},
	{"roofline invalid PE", "roofline",
		`{"pe": {"c": 64e6, "io": 0, "m": 4096}, "computations": [{"name": "fft"}], "mem_lo": 16, "mem_hi": 1024}`},
	{"roofline sweep_level without levels", "roofline",
		`{"pe": {"c": 64e6, "io": 1e6, "m": 4096}, "computations": [{"name": "fft"}], "mem_lo": 16, "mem_hi": 1024, "sweep_level": 2}`},
	{"roofline bad sweep lo", "roofline",
		`{"pe": {"c": 64e6, "io": 1e6, "m": 4096}, "computations": [{"name": "fft"}], "mem_lo": 0, "mem_hi": 1024}`},
	{"roofline bad sweep step", "roofline",
		`{"pe": {"c": 64e6, "io": 1e6, "m": 4096}, "computations": [{"name": "fft"}], "mem_lo": 16, "mem_hi": 1024, "step": 1}`},
	{"roofline too many points", "roofline",
		`{"pe": {"c": 64e6, "io": 1e6, "m": 4096}, "computations": [{"name": "fft"}], "mem_lo": 1, "mem_hi": 1e12, "step": 1.001}`},
	{"roofline no computations", "roofline",
		`{"pe": {"c": 64e6, "io": 1e6, "m": 4096}, "computations": [], "mem_lo": 16, "mem_hi": 1024}`},
	// Several faults at once: the first check in the flat order answers.
	{"analyze unknown computation and invalid PE", "analyze",
		`{"pe": {"c": 0, "io": 0, "m": 0}, "computation": {"name": "nope"}}`},
	{"analyze invalid PE and negative cap", "analyze",
		`{"pe": {"c": 1e6, "io": 1e6, "m": -1}, "computation": {"name": "fft"}, "max_memory": -5}`},
	{"roofline sweep_level, invalid PE and bad sweep", "roofline",
		`{"pe": {"c": 0, "io": 1e6, "m": 4096}, "computations": [{"name": "fft"}], "mem_lo": 0, "mem_hi": 1024, "sweep_level": 3}`},
	{"roofline invalid PE and too many points", "roofline",
		`{"pe": {"c": 64e6, "io": -1, "m": 4096}, "computations": [{"name": "fft"}], "mem_lo": 1, "mem_hi": 1e12, "step": 1.001}`},
	{"roofline too many points and bad computation", "roofline",
		`{"pe": {"c": 64e6, "io": 1e6, "m": 4096}, "computations": [{"name": "grid", "dim": 9}], "mem_lo": 1, "mem_hi": 1e12, "step": 1.001}`},
}

// TestFlatWireGolden replays every flat case standalone and then all of them
// as one batch, and compares the status lines and body bytes with
// testdata/flat_wire.golden.
func TestFlatWireGolden(t *testing.T) {
	h := New(Options{}).Handler()
	var out strings.Builder
	items := make([]BatchItem, len(flatWireCases))
	for i, c := range flatWireCases {
		w := do(h, http.MethodPost, "/v1/"+c.op, c.body)
		fmt.Fprintf(&out, "=== %s\nPOST /v1/%s %s\n--- %d\n%s", c.name, c.op, c.body, w.Code, w.Body.String())
		items[i] = BatchItem{Op: c.op, Request: json.RawMessage(c.body)}
	}
	batch, err := json.Marshal(BatchRequest{Requests: items})
	if err != nil {
		t.Fatal(err)
	}
	w := do(h, http.MethodPost, "/v1/batch", string(batch))
	fmt.Fprintf(&out, "=== batch of every case\nPOST /v1/batch\n--- %d\n%s", w.Code, w.Body.String())

	path := filepath.Join("testdata", "flat_wire.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	// Report per record, so a drift names the request that moved.
	got, exp := strings.Split(out.String(), "=== "), strings.Split(string(want), "=== ")
	if len(got) != len(exp) {
		t.Fatalf("golden has %d records, replay produced %d", len(exp), len(got))
	}
	for i := range got {
		if got[i] != exp[i] {
			t.Errorf("flat wire bytes drifted:\n--- got ---\n%s\n--- want ---\n%s", got[i], exp[i])
		}
	}
}
