package model

import (
	"math"
	"strings"
	"testing"
)

func TestPEValidate(t *testing.T) {
	good := PE{C: 1e6, IO: 1e5, M: 1024}
	if err := good.Validate(); err != nil {
		t.Errorf("valid PE rejected: %v", err)
	}
	bad := []PE{
		{C: 0, IO: 1, M: 1},
		{C: 1, IO: 0, M: 1},
		{C: 1, IO: 1, M: 0},
		{C: -5, IO: 1, M: 1},
		{C: math.Inf(1), IO: 1, M: 1},
		{C: 1, IO: math.NaN(), M: 1},
	}
	for i, pe := range bad {
		if err := pe.Validate(); err == nil {
			t.Errorf("case %d: invalid PE %+v accepted", i, pe)
		}
	}
}

func TestIntensityAndTimes(t *testing.T) {
	pe := PE{C: 100, IO: 25, M: 64}
	if got := pe.Intensity(); got != 4 {
		t.Errorf("Intensity = %v, want 4", got)
	}
	if got := pe.ComputeTime(500); got != 5 {
		t.Errorf("ComputeTime = %v, want 5", got)
	}
	if got := pe.IOTime(50); got != 2 {
		t.Errorf("IOTime = %v, want 2", got)
	}
}

func TestBalanceStateString(t *testing.T) {
	for _, s := range []BalanceState{Balanced, IOBound, ComputeBound, BalanceState(99)} {
		if s.String() == "" {
			t.Errorf("empty string for state %d", int(s))
		}
	}
}

func TestPEString(t *testing.T) {
	s := Warp().String()
	for _, want := range []string{"10M", "20M", "65.5K"} {
		if !strings.Contains(s, want) {
			t.Errorf("Warp().String() = %q, missing %q", s, want)
		}
	}
}
