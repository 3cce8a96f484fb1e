// Command hsbench regenerates the paper's evaluation: every table and
// figure of Section 6 of "Revisiting Reuse in Main Memory Database
// Systems". Experiments run on a synthetic TPC-H database generated
// in-process; scale with -sf and -n.
//
// Usage:
//
//	hsbench -exp all               # everything (default)
//	hsbench -exp exp1 -sf 0.05     # Figure 7a/7b at SF 0.05
//	hsbench -exp fig3 -full        # full calibration grid up to 1GB
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"

	"hashstash/internal/costmodel"
	"hashstash/internal/experiments"
)

var validExps = map[string]bool{
	"all": true, "fig3": true, "exp1": true, "exp2a": true,
	"exp2b": true, "exp2c": true, "exp3": true, "exp4": true, "exp5": true, "ablation": true,
}

// expNames lists validExps sorted, for the usage and error messages.
var expNames = strings.Join(slices.Sorted(maps.Keys(validExps)), ", ")

func main() {
	var (
		exp  = flag.String("exp", "all", "experiment: "+expNames)
		sf   = flag.Float64("sf", 0.02, "TPC-H scale factor")
		n    = flag.Int("n", 64, "queries per workload")
		full = flag.Bool("full", false, "fig3: extend the calibration grid to 1GB tables")
	)
	flag.Parse()
	if !validExps[*exp] {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; valid: %s\n", *exp, expNames)
		os.Exit(2)
	}

	run := func(name string) bool { return *exp == "all" || *exp == name }
	var env *experiments.Env
	needEnv := false
	for _, name := range []string{"exp1", "exp2a", "exp3", "exp4", "exp5", "ablation"} {
		if run(name) {
			needEnv = true
		}
	}
	if needEnv {
		fmt.Printf("generating TPC-H data (SF=%.3f)...\n", *sf)
		var err error
		env, err = experiments.NewEnv(*sf)
		if err != nil {
			fatal(err)
		}
	}

	if run("fig3") {
		opt := costmodel.DefaultCalibrateOptions()
		if *full {
			opt.Sizes = append(opt.Sizes, 1<<30)
		}
		res, err := experiments.Fig3(opt)
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.Format())
	}
	if run("exp1") {
		res, err := experiments.Exp1(env, *n)
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.Format())
	}
	if run("exp2a") {
		res, err := experiments.Exp2a(env)
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.Format())
	}
	if run("exp2b") {
		res, err := experiments.Exp2b(200000)
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.Format())
	}
	if run("exp2c") {
		res, err := experiments.Exp2c(500000, 4096)
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.Format())
	}
	if run("exp3") {
		res, err := experiments.Exp3(env, 16)
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.Format())
	}
	if run("exp4") {
		res, err := experiments.Exp4(env, *n)
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.Format())
	}
	if run("exp5") {
		res, err := experiments.Exp5(env, *n)
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.Format())
	}
	if run("ablation") {
		res, err := experiments.Ablation(env, *n)
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.Format())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hsbench:", err)
	os.Exit(1)
}
