package fpga

import (
	"sync/atomic"
	"testing"
)

var workSink atomic.Uint64

// BenchmarkValidateParallel measures Validate with every processor
// committing at once (run it at -cpu 1,2): disjoint footprints, so every
// request commits, and the cost is the engine lock under contention plus
// the pipeline. "back-to-back" submits with nothing between requests;
// "work" spends 300 dependent multiply-adds (a few hundred ns) of local
// computation between requests, the shape of a committer that also runs
// its transaction.
func BenchmarkValidateParallel(b *testing.B) {
	for _, shape := range []struct {
		name string
		work int
	}{{"back-to-back", 0}, {"work", 300}} {
		b.Run(shape.name, func(b *testing.B) {
			e, err := Start(Config{})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			var ids atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				base := ids.Add(1) << 40
				var reads [2]uint64
				var writes [2]uint64
				x := base
				for i := uint64(0); pb.Next(); i++ {
					for j := 0; j < shape.work; j++ {
						x = x*6364136223846793005 + 1442695040888963407
					}
					a := base + i*4
					reads = [2]uint64{a, a + 1}
					writes = [2]uint64{a + 2, a + 3}
					if _, err := e.Validate(req(^uint64(0), reads[:], writes[:])); err != nil {
						b.Error(err)
						return
					}
				}
				workSink.Add(x) // keeps the local work live
			})
		})
	}
}
