package rococotm

// Seams for this package's external tests (hybrid_test.go), which reach
// the runtime through internal/hybrid. Set them before r runs a
// transaction.

// SetWritebackHook makes r call hook before each redo-log word of every
// write-back, with the commit sequence and word index.
func SetWritebackHook(r *TM, hook func(seq uint64, word int)) { r.wbHook = hook }

// SetReadSpinLimit bounds the rounds a read of r waits on committers and
// fast line owners before it aborts.
func SetReadSpinLimit(r *TM, n int) { r.readSpin = n }

// ThreadDoomed reports whether thread's current attempt on r is doomed.
func ThreadDoomed(r *TM, thread int) bool { return phaseOf(r.live[thread].w.Load()) == phaseDoomed }
