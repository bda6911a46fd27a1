// Command experiments runs the reproduction's evaluation suite (E1-E12, one
// runner per claim of the paper in internal/experiments) and prints one
// table per experiment.
//
// Usage:
//
//	experiments            # CI-sized parameters (~2-3 minutes)
//	experiments -full      # full-scale parameters (~15 minutes)
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	full := flag.Bool("full", false, "run the full-scale parameterization (larger graphs and sample counts)")
	flag.Parse()
	if err := experiments.Suite(os.Stdout, *full); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
