// Command arraysim simulates the paper's §4 processor arrays: it sweeps the
// array size p and reports the smallest per-PE memory at which the
// double-buffered pipeline stops starving for I/O.
//
// Usage:
//
//	arraysim -topology linear -workload matmul -n 2048 -pmax 32
//	arraysim -topology mesh -workload grid3 -n 128 -pmax 8
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"balarch/internal/array"
	"balarch/internal/machine"
	"balarch/internal/model"
	"balarch/internal/textplot"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses the array flags, sweeps the array size and prints the per-PE
// balance memory table for the chosen topology and workload. A size whose
// search fails is reported on stderr and skipped. It returns the exit
// code: 0, or 2 on bad flags.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("arraysim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	topology := fs.String("topology", "linear", "linear or mesh")
	workload := fs.String("workload", "matmul", "matmul, grid2, grid3, or fft")
	n := fs.Int("n", 2048, "problem size (matrix dim, grid side, FFT points)")
	pmax := fs.Int("pmax", 16, "largest array size to sweep (powers of two)")
	cellC := fs.Float64("cellc", 4e6, "per-cell computation bandwidth (ops/s)")
	cellIO := fs.Float64("cellio", 1e6, "per-cell link bandwidth (words/s)")
	maxMem := fs.Int("maxmem", 1<<16, "per-PE memory search ceiling (words)")
	tol := fs.Float64("tol", 0.05, "utilization tolerance for calling the array balanced")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	w, err := pickWorkload(*workload, *n)
	if err != nil {
		return fatal(stderr, err)
	}
	ladder := doublings(4, *maxMem)
	cell := model.PE{C: *cellC, IO: *cellIO, M: 1}

	fmt.Fprintf(stdout, "topology=%s workload=%s cell intensity C/IO=%.3g\n\n", *topology, w.Name(), cell.Intensity())
	tb := textplot.NewTable("p", "cells", "aggregate C/IO", "per-PE balance memory", "compute util")
	for _, p := range doublings(1, *pmax) {
		var rates machine.Rates
		var cells int
		var alpha float64
		switch *topology {
		case "linear":
			arr := array.LinearArray{P: p, Cell: cell}
			rates, cells, alpha = arr.Rates(), p, arr.Aggregate().Intensity()
		case "mesh":
			arr := array.MeshArray{P: p, Cell: cell}
			rates, cells, alpha = arr.Rates(), arr.Cells(), arr.Aggregate().Intensity()
		default:
			return fatal(stderr, fmt.Errorf("unknown topology %q", *topology))
		}
		bp, err := array.FindBalancedMemory(rates, cells, w, ladder, *tol)
		if err != nil {
			fmt.Fprintf(stderr, "p=%d: %v\n", p, err)
			continue
		}
		tb.AddRow(p, cells, alpha, bp.PerPEMemory, fmt.Sprintf("%.3f", bp.Metrics.ComputeUtilization()))
	}
	fmt.Fprint(stdout, tb.String())
	return 0
}

// doublings returns from, 2·from, 4·from, … up to limit, stopping before
// the next doubling could overflow int.
func doublings(from, limit int) []int {
	var out []int
	for v := from; v <= limit; v *= 2 {
		out = append(out, v)
		if v > limit/2 {
			break
		}
	}
	return out
}

func pickWorkload(name string, n int) (array.Workload, error) {
	switch name {
	case "matmul":
		return array.MatMulWorkload{N: n}, nil
	case "grid2":
		return array.GridWorkload{Dim: 2, Size: n, Iters: 2}, nil
	case "grid3":
		return array.GridWorkload{Dim: 3, Size: n, Iters: 2}, nil
	case "fft":
		return array.FFTWorkload{N: n}, nil
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
}

func fatal(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "arraysim:", err)
	return 2
}
