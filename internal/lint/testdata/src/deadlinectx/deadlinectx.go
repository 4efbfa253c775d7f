// Package deadlinectx is golden-test input for the deadlinectx pass.
package deadlinectx

import (
	"context"
	"time"

	"rococotm/internal/mem"
	"rococotm/internal/tm"
)

// helper stands in for any context-aware sub-operation.
func helper(ctx context.Context) error { return ctx.Err() }

// freshBackground must be flagged: the helper runs under a root context,
// so the caller's per-request deadline never reaches it.
func freshBackground(ctx context.Context, m tm.TM) error {
	return tm.RunCtx(ctx, m, 0, func(x tm.Txn) error {
		return helper(context.Background()) // want `\[deadlinectx\] context\.Background\(\) inside a tm\.RunCtx closure`
	})
}

// freshTODO: same defect through context.TODO.
func freshTODO(ctx context.Context, m tm.TM) error {
	return tm.RunCtx(ctx, m, 0, func(x tm.Txn) error {
		c := context.TODO() // want `\[deadlinectx\] context\.TODO\(\) inside a tm\.RunCtx closure`
		return helper(c)
	})
}

// derivedTimeout must be flagged even when wrapped: the WithTimeout chain
// is rooted at Background, not at the caller's context.
func derivedTimeout(ctx context.Context, m tm.TM) error {
	return tm.RunCtx(ctx, m, 0, func(x tm.Txn) error {
		c, cancel := context.WithTimeout(context.Background(), 0) // want `\[deadlinectx\] context\.Background\(\) inside a tm\.RunCtx closure`
		defer cancel()
		return helper(c)
	})
}

// threadsCaller stays silent: the closure threads the caller's context.
func threadsCaller(ctx context.Context, m tm.TM, a mem.Addr) error {
	return tm.RunCtx(ctx, m, 0, func(x tm.Txn) error {
		if err := helper(ctx); err != nil {
			return err
		}
		_, err := x.Read(a)
		return err
	})
}

// derivesFromCaller stays silent: deriving from the threaded context
// preserves the deadline chain.
func derivesFromCaller(ctx context.Context, m tm.TM) error {
	return tm.RunCtx(ctx, m, 0, func(x tm.Txn) error {
		c, cancel := context.WithCancel(ctx)
		defer cancel()
		return helper(c)
	})
}

// runUntilIsNotChecked stays silent: RunUntil takes a deadline, not a
// context, so there is no caller context the closure could thread.
func runUntilIsNotChecked(dead time.Time, m tm.TM) error {
	return tm.RunUntil(dead, m, 0, tm.BackoffPolicy{}, func(x tm.Txn) error {
		return helper(context.Background())
	})
}

// outsideClosure stays silent: a root context built before entering the
// atomic block is the caller's own business.
func outsideClosure(m tm.TM) error {
	ctx := context.Background()
	return tm.RunCtx(ctx, m, 0, func(x tm.Txn) error { return nil })
}

// detachedGoroutine stays silent: nested function literals run on their
// own schedule and may legitimately want a detached context.
func detachedGoroutine(ctx context.Context, m tm.TM, done chan error) error {
	return tm.RunCtx(ctx, m, 0, func(x tm.Txn) error {
		go func() {
			done <- helper(context.Background())
		}()
		return nil
	})
}

// suppressed stays silent via directive.
func suppressed(ctx context.Context, m tm.TM) error {
	return tm.RunCtx(ctx, m, 0, func(x tm.Txn) error {
		//lint:ignore tmlint/deadlinectx fixture exercises suppression
		return helper(context.Background())
	})
}
