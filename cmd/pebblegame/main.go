// Command pebblegame plays the Hong–Kung red-blue pebble game on a chosen
// DAG and reports the I/O of the greedy, blocked (FFT) and exhaustively
// optimal strategies against the closed-form lower bounds.
//
// Usage:
//
//	pebblegame -dag fft -n 16 -s 6
//	pebblegame -dag matmul -n 4 -s 16
//	pebblegame -dag tree -n 8 -s 3 -optimal
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"balarch/internal/pebble"
	"balarch/internal/textplot"
)

// main parses the game flags, plays each requested strategy on the chosen
// DAG, prints the I/O counts against the lower bounds, and exits 0 (2 on
// bad flags).
func main() {
	kind := flag.String("dag", "fft", "graph: fft, matmul, tree, chain, diamond, stencil, stencil2d")
	n := flag.Int("n", 16, "problem size (points, matrix dim, leaves, length, depth, width)")
	s := flag.Int("s", 6, "red pebbles (local memory words)")
	iters := flag.Int("iters", 2, "iterations (stencil only)")
	block := flag.Int("block", 4, "block size for the blocked FFT strategy")
	optimal := flag.Bool("optimal", false, "also run the exhaustive optimum (tiny DAGs only)")
	flag.Parse()

	dag, err := buildDAG(*kind, *n, *iters)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("dag=%s n=%d vertices=%d inputs=%d outputs=%d maxInDegree=%d\n\n",
		*kind, *n, dag.Len(), len(dag.Inputs()), len(dag.Outputs()), dag.MaxInDegree())

	tb := textplot.NewTable("strategy", "S", "I/O", "peak red", "computes")
	sched, err := pebble.GreedySchedule(dag, *s)
	if err != nil {
		fatal(err)
	}
	res, err := pebble.Execute(dag, *s, sched)
	if err != nil {
		fatal(err)
	}
	tb.AddRow("greedy (Belady eviction)", *s, res.IO(), res.PeakRed, res.Computes)
	// best is the least I/O of a strategy that fits in S red pebbles, the
	// upper end of the optimum's bracket when the search gives up.
	best := res.IO()

	if *kind == "fft" {
		bsched, bs, err := pebble.BlockedFFTSchedule(*n, *block)
		if err == nil {
			bres, err := pebble.Execute(dag, bs, bsched)
			if err != nil {
				fatal(err)
			}
			tb.AddRow(fmt.Sprintf("blocked (Fig. 2, M=%d)", *block), bs, bres.IO(), bres.PeakRed, bres.Computes)
			if bs <= *s {
				best = min(best, bres.IO())
			}
		}
	}
	if *optimal {
		opt, err := pebble.OptimalIO(dag, *s)
		var capped *pebble.StateCapError
		switch {
		case errors.As(err, &capped):
			fmt.Fprintln(os.Stderr, "optimal search:", err)
			tb.AddRow("optimum bracket (state cap)", *s, fmt.Sprintf("[%d, %d]", capped.Lower, best), "-", "-")
		case err != nil:
			fmt.Fprintln(os.Stderr, "optimal search:", err)
		default:
			tb.AddRow("exhaustive optimum", *s, opt, "-", "-")
		}
	}
	fmt.Print(tb.String())

	fmt.Printf("\ntrivial lower bound (inputs+outputs): %d\n", pebble.TrivialLowerBound(dag))
	switch *kind {
	case "fft":
		fmt.Printf("Hong-Kung FFT bound at S=%d: %.1f\n", *s, pebble.FFTLowerBound(*n, *s))
	case "matmul":
		fmt.Printf("matmul I/O bound at S=%d: %.1f\n", *s, pebble.MatMulLowerBound(*n, *s))
	}
}

func buildDAG(kind string, n, iters int) (*pebble.DAG, error) {
	switch kind {
	case "fft":
		return pebble.FFTDAG(n)
	case "matmul":
		return pebble.MatMulDAG(n)
	case "tree":
		return pebble.BinaryTreeDAG(n)
	case "chain":
		return pebble.ChainDAG(n)
	case "diamond":
		return pebble.DiamondDAG(n)
	case "stencil":
		return pebble.Stencil1DDAG(n, iters)
	case "stencil2d":
		return pebble.Stencil2DDAG(n, iters)
	default:
		return nil, fmt.Errorf("unknown dag kind %q", kind)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pebblegame:", err)
	os.Exit(2)
}
