// Package runctx is golden-test input for the runctx pass.
package runctx

import (
	"context"
	"time"

	"rococotm/internal/mem"
	"rococotm/internal/tm"
)

// spinForever must be flagged: the loop never crosses a transaction
// boundary and never consults the context, so cancellation can never land.
func spinForever(ctx context.Context, m tm.TM) error {
	return tm.RunCtx(ctx, m, 0, func(x tm.Txn) error {
		n := 0
		for { // want `\[runctx\] unconditional loop in a tm.RunCtx closure ignores cancellation`
			n++
		}
	})
}

// spinUntil: same defect through RunUntil, whose deadline is observed
// only once the closure returns.
func spinUntil(dead time.Time, m tm.TM) error {
	return tm.RunUntil(dead, m, 0, tm.BackoffPolicy{}, func(x tm.Txn) error {
		for { // want `\[runctx\] unconditional loop in a tm.RunUntil closure ignores cancellation`
			busywork()
		}
	})
}

// pollUntilViaTxn stays silent: the Read boundary is where the watchdog's
// kill lands, and the loop propagates it.
func pollUntilViaTxn(dead time.Time, m tm.TM, a mem.Addr) error {
	return tm.RunUntil(dead, m, 0, tm.BackoffPolicy{}, func(x tm.Txn) error {
		for {
			if _, err := x.Read(a); err != nil {
				return err
			}
		}
	})
}

// pollViaTxn stays silent: every iteration crosses the Read boundary,
// where the RunCtx wrapper observes cancellation.
func pollViaTxn(ctx context.Context, m tm.TM, a mem.Addr) error {
	return tm.RunCtx(ctx, m, 0, func(x tm.Txn) error {
		for {
			v, err := x.Read(a)
			if err != nil {
				return err
			}
			if v != 0 {
				return x.Write(a, 0)
			}
		}
	})
}

// pollViaCtx stays silent: the loop checks ctx.Err() itself.
func pollViaCtx(ctx context.Context, m tm.TM) error {
	return tm.RunCtx(ctx, m, 0, func(x tm.Txn) error {
		for {
			if err := ctx.Err(); err != nil {
				return err
			}
			busywork()
		}
	})
}

// selectOnDone stays silent: the loop waits on ctx.Done().
func selectOnDone(ctx context.Context, m tm.TM, wake chan struct{}) error {
	return tm.RunCtx(ctx, m, 0, func(x tm.Txn) error {
		for {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-wake:
				busywork()
			}
		}
	})
}

// ctxToHelper stays silent: the context is handed to a helper each
// iteration, which is presumed to check it.
func ctxToHelper(ctx context.Context, m tm.TM) error {
	return tm.RunCtx(ctx, m, 0, func(x tm.Txn) error {
		for {
			if err := helper(ctx); err != nil {
				return err
			}
		}
	})
}

// boundedLoops stay silent: a conditional loop, a range loop, and an
// unconditional loop with its own exits all terminate on their own.
func boundedLoops(ctx context.Context, m tm.TM, items []int) error {
	return tm.RunCtx(ctx, m, 0, func(x tm.Txn) error {
		for i := 0; i < 10; i++ {
			busywork()
		}
		for range items {
			busywork()
		}
		n := 0
		for {
			n++
			if n > 100 {
				break
			}
		}
		for {
			if n == 0 {
				return nil
			}
			n--
		}
	})
}

// innerBreakDoesNotExit must be flagged: the only break leaves the nested
// switch, never the loop.
func innerBreakDoesNotExit(ctx context.Context, m tm.TM) error {
	return tm.RunCtx(ctx, m, 0, func(x tm.Txn) error {
		n := 0
		for { // want `\[runctx\] unconditional loop in a tm.RunCtx closure ignores cancellation`
			switch n {
			case 0:
				break
			default:
				n--
			}
			n++
		}
	})
}

// labeledBreakExits stays silent: the labeled break leaves the outer loop.
func labeledBreakExits(ctx context.Context, m tm.TM) error {
	return tm.RunCtx(ctx, m, 0, func(x tm.Txn) error {
		n := 0
	outer:
		for {
			switch n {
			case 3:
				break outer
			default:
				n++
			}
		}
		return nil
	})
}

// plainRunIsNotChecked stays silent: tm.Run has no context to ignore (the
// watchdog is the only recourse there, and that is a runtime concern).
func plainRunIsNotChecked(m tm.TM) error {
	return tm.Run(m, 0, func(x tm.Txn) error {
		for {
			busywork()
		}
	})
}

func busywork() {}

func helper(ctx context.Context) error { return ctx.Err() }
