package bench

import (
	"fmt"
	"strings"

	"rococotm/internal/mem"
	"rococotm/internal/rococotm"
	"rococotm/internal/stamp"
	"rococotm/internal/stm/tinystm"
	"rococotm/internal/tm"
)

// Fig11Row is the per-transaction validation overhead of one app on both
// instrumented runtimes.
type Fig11Row struct {
	App string
	// TinySTMWallUs is the measured wall-clock time the CPU spends walking
	// the timestamped read set per commit attempt.
	TinySTMWallUs float64
	// ROCoCoWallUs is the measured wall time a transaction waits on the
	// (simulated) engine — host-dependent, reported for completeness.
	ROCoCoWallUs float64
	// ROCoCoModelUs is the modeled hardware latency per validated
	// transaction (CCI round trip + pipeline residency) — the quantity
	// comparable to the paper's sub-microsecond bars.
	ROCoCoModelUs float64
}

// Fig11Report regenerates Figure 11: amortized validation overhead.
type Fig11Report struct {
	Threads int
	Rows    []Fig11Row
}

// Fig11Config parameterizes the experiment.
type Fig11Config struct {
	Scale   stamp.Scale
	Threads int
	Apps    []string
}

// DefaultFig11 returns the paper-shaped configuration (the paper shows a
// subset of applications; labyrinth is the stressor).
func DefaultFig11() Fig11Config {
	return Fig11Config{
		Scale:   stamp.Medium,
		Threads: 8,
		Apps:    []string{"genome", "labyrinth", "vacation", "yada"},
	}
}

// RunFig11 produces the report.
func RunFig11(cfg Fig11Config) (*Fig11Report, error) {
	rep := &Fig11Report{Threads: cfg.Threads}
	for _, name := range cfg.Apps {
		row := Fig11Row{App: name}

		app, err := NewApp(name, cfg.Scale)
		if err != nil {
			return nil, err
		}
		res, err := stamp.Execute(app, func(h *mem.Heap) tm.TM {
			return tinystm.New(h, tinystm.Config{MeasureValidation: true})
		}, cfg.Threads)
		if err != nil {
			return nil, err
		}
		if n := res.TM.Commits + res.TM.Aborts - res.TM.ReadOnly; n > 0 {
			row.TinySTMWallUs = float64(res.TM.ValidationNanos) / float64(n) / 1e3
		}

		app, err = NewApp(name, cfg.Scale)
		if err != nil {
			return nil, err
		}
		var rtm *rococotm.TM
		res, err = stamp.Execute(app, func(h *mem.Heap) tm.TM {
			rtm = rococotm.New(h, rococotm.Config{
				MaxThreads:    cfg.Threads + 1,
				MeasurePhases: true,
			})
			return rtm
		}, cfg.Threads)
		if err != nil {
			return nil, err
		}
		// Per validated transaction = per engine request (only write
		// transactions reach the engine).
		if requests := rtm.Engine().Stats().Requests; requests > 0 {
			row.ROCoCoWallUs = float64(res.TM.ValidationNanos) / float64(requests) / 1e3
			row.ROCoCoModelUs = float64(res.TM.ModelValidationNanos) / float64(requests) / 1e3
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// String renders the paper-style table.
func (r *Fig11Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 11: per-transaction validation overhead (µs), %d threads\n", r.Threads)
	fmt.Fprintf(&sb, "%-11s %14s %18s %19s\n",
		"app", "TinySTM (wall)", "ROCoCoTM (model)", "ROCoCoTM (sim wall)")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-11s %14.3f %18.3f %19.3f\n",
			row.App, row.TinySTMWallUs, row.ROCoCoModelUs, row.ROCoCoWallUs)
	}
	sb.WriteString("(paper: ROCoCoTM stays below 1 µs for all apps; TinySTM grows with read-set size)\n")
	return sb.String()
}
