// Command rococobench regenerates the paper's tables and figures.
//
// Usage:
//
//	rococobench -exp <name>|all
//	            [-scale small|medium|large] [-app name] [-threads list]
//	            [-cpuprofile file] [-memprofile file]
//
// The experiments table below is the one list of experiment names: it
// drives the -exp usage string, the unknown-experiment listing and the
// "all" order.
//
// Each experiment prints a paper-style text table; EXPERIMENTS.md records
// the paper-vs-measured comparison. The profile flags capture pprof data
// over whichever experiments run (profile, fix the hot allocation or probe,
// re-measure).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"rococotm/internal/bench"
	"rococotm/internal/stamp"
)

// benchCtx carries the parsed flags into experiment runners.
type benchCtx struct {
	scale   stamp.Scale
	app     string
	threads []int
	stdout  io.Writer
}

// errExit signals a runner-level failure to run() without os.Exit, so the
// driver stays testable.
type errExit struct{ err error }

func (e errExit) Error() string { return e.err.Error() }

// fatal aborts the current experiment run; run() turns it into exit code 1.
func fatal(err error) {
	panic(errExit{err})
}

// experiments is the single source of truth for -exp: the usage string,
// the unknown-experiment table, the "all" sweep order, and the dispatch
// are all derived from this table. Add new experiments here and nowhere
// else.
var experiments = []struct {
	name string
	desc string
	run  func(c benchCtx)
}{
	{"fig6", "validation latency vs update-set size (paper Fig. 6)", func(c benchCtx) {
		c.emit(bench.RunFig6(nil), nil)
	}},
	{"fig7", "validation throughput vs pipeline depth (paper Fig. 7)", func(c benchCtx) {
		rep, err := bench.RunFig7(bench.DefaultFig7())
		c.emit(rep, err)
	}},
	{"fig9", "commit-queue occupancy under contention (paper Fig. 9)", func(c benchCtx) {
		rep, err := bench.RunFig9(bench.DefaultFig9())
		c.emit(rep, err)
	}},
	{"fig10", "STAMP speedup vs thread count (paper Fig. 10)", func(c benchCtx) {
		cfg := bench.DefaultFig10()
		cfg.Scale = c.scale
		if len(c.threads) > 0 {
			cfg.Threads = c.threads
		}
		if c.app != "" {
			cfg.Apps = []string{c.app}
		}
		rep, err := bench.RunFig10(cfg)
		c.emit(rep, err)
	}},
	{"fig11", "STAMP abort rates per application (paper Fig. 11)", func(c benchCtx) {
		cfg := bench.DefaultFig11()
		cfg.Scale = c.scale
		if c.app != "" {
			cfg.Apps = []string{c.app}
		}
		rep, err := bench.RunFig11(cfg)
		c.emit(rep, err)
	}},
	{"resources", "modeled FPGA resource usage (paper Table 3)", func(c benchCtx) {
		rep, err := bench.RunResources(nil)
		c.emit(rep, err)
	}},
	{"ablation-window", "sliding-window size ablation", func(c benchCtx) {
		rep, err := bench.RunWindowAblation(nil, 16, 16, 25)
		c.emit(rep, err)
	}},
	{"ablation-sig", "signature width ablation on STAMP apps", func(c benchCtx) {
		apps := []string{"vacation", "genome"}
		if c.app != "" {
			apps = []string{c.app}
		}
		rep, err := bench.RunSigAblation(apps, c.scale, 8, nil)
		c.emit(rep, err)
	}},
	{"ablation-contention", "contention-level ablation", func(c benchCtx) {
		rep, err := bench.RunContentionAblation(c.scale, 8)
		c.emit(rep, err)
	}},
}

func experimentNames() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return names
}

// experimentTable renders the name + one-line description listing shown
// for an unknown -exp.
func experimentTable() string {
	var sb strings.Builder
	sb.WriteString("available experiments:\n")
	for _, e := range experiments {
		fmt.Fprintf(&sb, "  %-20s %s\n", e.name, e.desc)
	}
	fmt.Fprintf(&sb, "  %-20s %s\n", "all", "run every experiment in table order")
	return sb.String()
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable driver: it parses args, dispatches experiments, and
// returns the process exit code.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("rococobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all",
		"experiment: "+strings.Join(experimentNames(), ", ")+", all")
	scaleFlag := fs.String("scale", "medium", "STAMP input scale: small, medium, large")
	app := fs.String("app", "", "restrict fig10/fig11 to one app")
	threadsFlag := fs.String("threads", "", "comma-separated thread counts for fig10 (default 1,4,8,14,28)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	defer func() {
		if r := recover(); r != nil {
			ee, ok := r.(errExit)
			if !ok {
				panic(r)
			}
			fmt.Fprintln(stderr, "rococobench:", ee.err)
			code = 1
		}
	}()

	scale, err := parseScale(*scaleFlag)
	if err != nil {
		fatal(err)
	}
	threads, err := parseThreads(*threadsFlag)
	if err != nil {
		fatal(err)
	}
	ctx := benchCtx{scale: scale, app: *app, threads: threads, stdout: stdout}

	if *exp != "all" {
		known := false
		for _, e := range experiments {
			known = known || e.name == *exp
		}
		if !known {
			fmt.Fprintf(stderr, "rococobench: unknown experiment %q\n%s", *exp, experimentTable())
			return 1
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // flush the final allocation state
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	if *exp == "all" {
		for _, e := range experiments {
			e.run(ctx)
			fmt.Fprintln(stdout)
		}
		return 0
	}
	for _, e := range experiments {
		if e.name == *exp {
			e.run(ctx)
			return 0
		}
	}
	return 0 // unreachable: unknown names were rejected above
}

func parseScale(s string) (stamp.Scale, error) {
	switch s {
	case "small":
		return stamp.Small, nil
	case "medium":
		return stamp.Medium, nil
	case "large":
		return stamp.Large, nil
	default:
		return 0, fmt.Errorf("unknown scale %q", s)
	}
}

func parseThreads(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad thread count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func (c benchCtx) emit(rep fmt.Stringer, err error) {
	if err != nil {
		fatal(err)
	}
	fmt.Fprint(c.stdout, rep.String())
}
