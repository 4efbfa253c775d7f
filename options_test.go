package repro_test

import (
	"reflect"
	"slices"
	"testing"

	"rococotm/internal/audit"
	"rococotm/internal/fpga"
	"rococotm/internal/htm"
	"rococotm/internal/hybrid"
	"rococotm/internal/rococotm"
	"rococotm/internal/serve"
	"rococotm/internal/stm/tinystm"
	"rococotm/internal/tm"
)

// TestOptionCensus pins the exported fields of every configuration type.
// A field is an option only if code other than tests sets it; a design
// parameter that only tests vary is an unexported constant with a test
// seam in its package. Adding a field means adding it here together with
// the non-test code that sets it.
func TestOptionCensus(t *testing.T) {
	census := []struct {
		typ    reflect.Type
		fields []string // each with a non-test setter, noted
	}{
		{reflect.TypeOf(rococotm.Config{}), []string{
			"MaxThreads",    // benchmark/workload.go, internal/bench
			"Engine",        // internal/bench/ablation.go
			"MeasurePhases", // benchmark/workload.go (--trace 1), internal/bench/fig11.go
			"WatchdogAge",   // tests only: internal/fault, internal/hybrid; no seam reaches them
			"Logf",          // tests only: internal/fault, internal/hybrid; no seam reaches them
			"Observer",      // tests only: internal/fault, internal/hybrid, internal/serve; no seam reaches them
			"Durable",       // benchmark/workload.go (bank-full)
			"LineTable",     // hybrid.New
		}},
		{reflect.TypeOf(hybrid.Config{}), []string{
			"Slow", // benchmark/workload.go
		}},
		{reflect.TypeOf(serve.Config{}), []string{
			"Workers",       // benchmark/workload.go, benchmark/probes.go
			"DefaultBudget", // benchmark/workload.go
		}},
		{reflect.TypeOf(fpga.Config{}), []string{
			"Sig", // internal/bench/ablation.go
		}},
		{reflect.TypeOf(tm.BackoffPolicy{}), []string{
			"EscalateAfter", // internal/serve
		}},
		{reflect.TypeOf(audit.Config{}), []string{
			"KeepHistory", // audit.SelfTest
		}},
		{reflect.TypeOf(tinystm.Config{}), []string{
			"Stripes",           // the baseline's lock-table model parameter
			"MeasureValidation", // internal/bench/fig11.go
		}},
		{reflect.TypeOf(htm.Config{}), []string{
			"MaxThreads",         // internal/bench/costs.go
			"WriteCapacityLines", // the baseline's HTM model parameters
			"RetryLimit",
			"SpuriousProb",
			"Seed",
		}},
	}
	for _, c := range census {
		var got []string
		for i := 0; i < c.typ.NumField(); i++ {
			if f := c.typ.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if !slices.Equal(got, c.fields) {
			t.Errorf("%v has %d exported fields %v, want %d %v: an option needs a non-test caller, named in this census",
				c.typ, len(got), got, len(c.fields), c.fields)
		}
	}
}
