// Command benchmark is the repository's benchmark: five procs=1 workloads
// with round-median end-to-end metrics, a traced latency budget per layer,
// and ungated parallel diagnostics. README.md in this directory has the
// design; BENCHMARK.json at the repository root has the contract.
//
//	go run -C benchmark . -seed N          every workload, every metric
//	go run -C benchmark . -seed N -aa      two gated sets back to back, compared
//	... -workload W -seed N -seconds S -trace 0|1   one workload, result as a last JSON line
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

const (
	rounds        = 10 // fresh processes per workload; the reported value is their median
	workersPerRun = 2  // closed-loop workers of every round
	tracedRounds  = 2  // rounds per configuration (untraced reference, traced) in the traced pass
	parRounds     = 3  // diagnostic rounds at GOMAXPROCS=NumCPU
	roundSlack    = 25 * time.Second
)

type options struct {
	ctx      context.Context // cancelled on SIGINT/SIGTERM: the running child is killed and waited for
	seed     uint64
	seconds  float64
	traceOut string
}

// windowMS splits the measured seconds of one workload over its rounds.
func (o options) windowMS() int { return int(o.seconds * 1000 / rounds) }

func main() {
	start := time.Now()
	var (
		workload = flag.String("workload", "", "run one workload and print its result as a last JSON line (default: all)")
		seed     = flag.Uint64("seed", 1, "workload seed: the same seed gives the same operations")
		seconds  = flag.Float64("seconds", 20, "measured seconds per workload, split over the rounds")
		trace    = flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, 1 = per-layer metrics")
		aa       = flag.Bool("aa", false, "run two gated sets back to back and compare them with the bounds")
		traceOut = flag.String("trace-out", "", "write the traced rounds' spans to <path>.<workload>.<round>.jsonl")
		child    = flag.String("child", "", "internal: run one round (JSON spec) and print its result")
		probes   = flag.Bool("probes", false, "internal: run the layer probes and print them")
	)
	flag.Parse()

	switch {
	case *child != "":
		fail(runChild(*child, start))
		return
	case *probes:
		out, err := runProbes()
		fail(err)
		fail(json.NewEncoder(os.Stdout).Encode(out))
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opt := options{ctx: ctx, seed: *seed, seconds: *seconds, traceOut: *traceOut}
	if opt.windowMS() < 1 {
		fail(errors.New("-seconds is too short to split over the rounds"))
	}
	wl, ok := findWorkload(*workload)
	if *workload != "" && !ok {
		fail(fmt.Errorf("unknown workload %q", *workload))
	}
	var err error
	fmt.Println(fingerprint())
	switch {
	case *workload != "":
		err = driverRun(wl, opt, *trace == 1)
	case *aa:
		err = runAA(opt)
	default:
		err = runAll(opt)
	}
	if err == nil {
		err = ctx.Err() // interrupted between rounds
	}
	fail(err)
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// fingerprint is the host line every report starts with.
func fingerprint() string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("host: NumCPU=%d GOMAXPROCS(gated rounds)=1 GOMAXPROCS(par rounds)=%d %s %s/%s commit=%s",
		runtime.NumCPU(), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit)
}

// runChild is the round process: it runs one round and prints the result.
func runChild(specJSON string, start time.Time) error {
	var spec roundSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		return err
	}
	res, err := runRound(spec, start)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// spawn re-executes this binary, one process at a time, and decodes what it
// prints. A process that crashes, or hangs past timeout, is an error.
func spawn(ctx context.Context, timeout time.Duration, out any, args ...string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = time.Second
	if err := cmd.Run(); err != nil {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return fmt.Errorf("round hung: killed after %v", timeout)
		}
		return fmt.Errorf("round crashed: %w", err)
	}
	return json.Unmarshal(stdout.Bytes(), out)
}

func (o options) spec(wl workload, round, procs int, traced bool) roundSpec {
	s := roundSpec{
		Workload: wl.name, Seed: o.seed, Round: round, Procs: procs, Workers: workersPerRun,
		WindowMS: o.windowMS(), Warmup: -1, Traced: traced,
	}
	if traced && o.traceOut != "" {
		s.TraceOut = fmt.Sprintf("%s.%s.%d.jsonl", o.traceOut, wl.name, round)
	}
	return s
}

func spawnRound(ctx context.Context, spec roundSpec) (*roundResult, error) {
	js, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	res := &roundResult{}
	timeout := time.Duration(spec.WindowMS)*time.Millisecond + roundSlack
	if err := spawn(ctx, timeout, res, "-child", string(js)); err != nil {
		return nil, fmt.Errorf("%s round %d: %w", spec.Workload, spec.Round, err)
	}
	return res, nil
}

// gated runs the gated rounds of the given workloads, interleaved
// (A B C A B C ...) so that slow drift of the host spreads over all of them.
func gated(wls []workload, opt options, firstRound int) (map[string]set, error) {
	sets := map[string]set{}
	for r := 0; r < rounds; r++ {
		for _, wl := range wls {
			res, err := spawnRound(opt.ctx, opt.spec(wl, firstRound+r, 1, false))
			if err != nil {
				return nil, err
			}
			sets[wl.name] = append(sets[wl.name], res)
		}
	}
	return sets, nil
}

// tracedPass runs the per-layer half for one workload: untraced reference
// rounds and traced rounds interleaved, the parallel diagnostic rounds, and
// (once per invocation) the layer probes.
func tracedPass(wl workload, opt options, probes map[string]float64) (map[string]float64, set, error) {
	var ref, traced set
	var par []parRound
	for r := 0; r < tracedRounds; r++ {
		for _, tr := range []bool{false, true} {
			res, err := spawnRound(opt.ctx, opt.spec(wl, 1000+r, 1, tr))
			if err != nil {
				return nil, nil, err
			}
			if tr {
				traced = append(traced, res)
			} else {
				ref = append(ref, res)
			}
		}
	}
	for r := 0; r < parRounds; r++ {
		// Not fatal: the parallel state of the program is on record, not gated.
		res, err := spawnRound(opt.ctx, opt.spec(wl, 2000+r, runtime.NumCPU(), false))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: par round (counted as an oracle violation):", err)
		}
		par = append(par, parRound{res, err})
	}
	return layers(wl, ref, traced, par, probes), ref, nil
}

func spawnProbes(ctx context.Context) (map[string]float64, error) {
	out := map[string]float64{}
	err := spawn(ctx, time.Minute, &out, "-probes")
	return out, err
}

// result is the last line of a -workload run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func emit(defs []metricDef, values map[string]float64, sum summary) error {
	res := result{Correct: sum.failed == 0, Attempted: sum.attempted, Failed: sum.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{values[d.name], d.unit}
	}
	js, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(js))
	return nil
}

func printSummary(wl workload, s set, sum summary) {
	fmt.Printf("%s  (%s)\n  attempted=%d failed=%d samples(update)=%d samples(ro)=%d\n",
		wl.name, wl.why, sum.attempted, sum.failed, sum.samplesUpd, sum.samplesRO)
	rates, setups := s.txnPerS(), s.each(func(r *roundResult) float64 { return r.SetupS })
	fmt.Printf("  rounds: txn_per_s %.0f (IQR %.1f%%)  setup_s %.3f (IQR %.1f%%)  stolen CPU s %.2f\n",
		rates, 100*ratio(iqr(rates), median(rates)), setups, 100*ratio(iqr(setups), median(setups)),
		s.each(func(r *roundResult) float64 { return r.StealS }))
	if sum.firstErr != "" {
		fmt.Printf("  first failure: %s\n", sum.firstErr)
	}
	printMetrics(os.Stdout, endToEnd, sum.values)
}

// driverRun is one workload under the driver's contract.
func driverRun(wl workload, opt options, trace bool) error {
	if !trace {
		sets, err := gated([]workload{wl}, opt, 0)
		if err != nil {
			return err
		}
		sum := summarize(sets[wl.name])
		printSummary(wl, sets[wl.name], sum)
		return emit(endToEnd, sum.values, sum)
	}
	probes, err := spawnProbes(opt.ctx)
	if err != nil {
		return err
	}
	values, ref, err := tracedPass(wl, opt, probes)
	if err != nil {
		return err
	}
	sum := summarize(ref)
	fmt.Printf("%s  per-layer (ungated)  attempted=%d failed=%d\n", wl.name, sum.attempted, sum.failed)
	printMetrics(os.Stdout, perLayer, values)
	return emit(perLayer, values, sum)
}

// runAll is the one command: every workload, every metric.
func runAll(opt options) error {
	sets, err := gated(workloads, opt, 0)
	if err != nil {
		return err
	}
	failed := uint64(0)
	for _, wl := range workloads {
		sum := summarize(sets[wl.name])
		printSummary(wl, sets[wl.name], sum)
		failed += sum.failed
	}
	probes, err := spawnProbes(opt.ctx)
	if err != nil {
		return err
	}
	for _, wl := range workloads {
		values, _, err := tracedPass(wl, opt, probes)
		if err != nil {
			return err
		}
		fmt.Printf("%s  per-layer (ungated)\n", wl.name)
		printMetrics(os.Stdout, perLayer, values)
	}
	if failed > 0 {
		return fmt.Errorf("%d operations or oracles failed", failed)
	}
	return nil
}

// runAA runs two full gated sets back to back on the same code and prints,
// per workload and end-to-end metric, both medians, by how much the second is
// worse than the first, and the bound.
func runAA(opt options) error {
	a, err := gated(workloads, opt, 0)
	if err != nil {
		return err
	}
	b, err := gated(workloads, opt, rounds)
	if err != nil {
		return err
	}
	fmt.Printf("%-13s %-14s %14s %14s %8s %7s\n", "workload", "metric", "A", "B", "worse", "bound")
	over := 0
	for _, wl := range workloads {
		sa, sb := summarize(a[wl.name]), summarize(b[wl.name])
		for _, d := range endToEnd {
			va, vb := sa.values[d.name], sb.values[d.name]
			worse := ratio(vb-va, va) // by how much of A's median B is worse; negative = better
			if d.better == "higher" {
				worse = -worse
			}
			mark := ""
			if worse > d.bound {
				mark = "  OVER"
				over++
			}
			fmt.Printf("%-13s %-14s %14.6g %14.6g %+7.2f%% %6.0f%%%s\n", wl.name, d.name, va, vb, 100*worse, 100*d.bound, mark)
		}
		if sa.failed+sb.failed > 0 {
			return fmt.Errorf("%s: %d operations or oracles failed", wl.name, sa.failed+sb.failed)
		}
	}
	if over > 0 {
		return fmt.Errorf("%d workload x metric pairs are worse in the second set by more than their bound", over)
	}
	return nil
}
