// Package updatelock is golden-test input for the updatelock pass.
package updatelock

import (
	"errors"
	"sync/atomic"
)

type slot struct {
	active atomic.Uint32
	seq    atomic.Uint64
}

type runtimeT struct {
	updates []slot
}

var errBad = errors.New("bad")

// leakOnErrorPath is the bug class: an error-path return between the
// acquire and the release leaves the entry locked forever.
func leakOnErrorPath(u *slot, fail bool) error {
	u.seq.Store(7)
	u.active.Store(1)
	if fail {
		return errBad // want `\[updatelock\] return while the update-set entry \(u\.active\.Store\(1\)\) is still held`
	}
	u.active.Store(0)
	return nil
}

// leakOnEveryPath: even the success return leaks.
func leakOnEveryPath(u *slot) error {
	u.active.Store(1)
	return nil // want `\[updatelock\] return while the update-set entry`
}

// releaseBothPaths is correct: each branch releases before returning.
func releaseBothPaths(u *slot, fail bool) error {
	u.active.Store(1)
	if fail {
		u.active.Store(0)
		return errBad
	}
	u.active.Store(0)
	return nil
}

// deferredRelease is correct: the defer covers every later return.
func deferredRelease(u *slot, fail bool) error {
	u.active.Store(1)
	defer u.active.Store(0)
	if fail {
		return errBad
	}
	return nil
}

// releaseHelper releases some entry; callers handing their entry to it are
// covered (the abandonCommit pattern).
func releaseHelper(r *runtimeT, th int) error {
	r.updates[th].active.Store(0)
	return errBad
}

// delegated is correct: the helper call on the error path performs the
// release transitively.
func delegated(r *runtimeT, th int, fail bool) error {
	u := &r.updates[th]
	u.active.Store(1)
	if fail {
		return releaseHelper(r, th)
	}
	u.active.Store(0)
	return nil
}

// indirectHelper delegates one level further; the fixpoint must close
// over it.
func indirectHelper(r *runtimeT, th int) error {
	return releaseHelper(r, th)
}

func delegatedTwice(r *runtimeT, th int, fail bool) error {
	u := &r.updates[th]
	u.active.Store(1)
	if err := guarded(r, th, fail); err != nil {
		return err
	}
	u.active.Store(0)
	return nil
}

// guarded releases (transitively) on its error path, so the caller's
// `return err` above is fine.
func guarded(r *runtimeT, th int, fail bool) error {
	if fail {
		return indirectHelper(r, th)
	}
	return nil
}

// leakViaPlainHelper: the helper does NOT release, so the error-path
// return still leaks.
func plainHelper(fail bool) error {
	if fail {
		return errBad
	}
	return nil
}

func leakViaPlainHelper(u *slot, fail bool) error {
	u.active.Store(1)
	if err := plainHelper(fail); err != nil {
		return err // want `\[updatelock\] return while the update-set entry`
	}
	u.active.Store(0)
	return nil
}

// leakInNestedBranch: the return hides two levels down.
func leakInNestedBranch(u *slot, a, b bool) error {
	u.active.Store(1)
	if a {
		if b {
			return errBad // want `\[updatelock\] return while the update-set entry`
		}
	}
	u.active.Store(0)
	return nil
}

// releaseThenReturnInBranch is correct: the branch releases before its
// return.
func releaseThenReturnInBranch(u *slot, fail bool) error {
	u.active.Store(1)
	if fail {
		u.active.Store(0)
		return errBad
	}
	u.active.Store(0)
	return nil
}

// suppressed shows the escape hatch.
func suppressed(u *slot, fail bool) error {
	u.active.Store(1)
	if fail {
		//lint:ignore tmlint/updatelock the caller owns the entry and releases it after inspecting the error
		return errBad
	}
	u.active.Store(0)
	return nil
}

// otherAtomicsAreNotLocks: Store(1) on a field not named active is out of
// scope.
func otherAtomicsAreNotLocks(u *slot, fail bool) error {
	u.seq.Store(1)
	if fail {
		return errBad
	}
	return nil
}

// armHelper arms an entry and returns holding it: an acquiring helper (the
// publication stage's arm). Falling off its end is not a leak — its callers
// own the release.
func armHelper(r *runtimeT, th int) {
	r.updates[th].seq.Store(7)
	r.updates[th].active.Store(1)
}

// leakViaArmHelper: calling the helper is an acquire, so the error-path
// return leaks exactly as after a literal Store(1).
func leakViaArmHelper(r *runtimeT, th int, fail bool) error {
	armHelper(r, th)
	if fail {
		return errBad // want `\[updatelock\] return while the update-set entry`
	}
	r.updates[th].active.Store(0)
	return nil
}

// armHelperReleased is correct: every path after the helper call releases,
// one of them through a releasing helper.
func armHelperReleased(r *runtimeT, th int, fail bool) error {
	armHelper(r, th)
	if fail {
		return releaseHelper(r, th)
	}
	r.updates[th].active.Store(0)
	return nil
}
