package tm

import (
	"errors"
	"runtime"
)

// Code is the structured form of an abort reason. The string Reason
// constants remain the wire/report format (Stats.Reasons, Error()
// messages); Code is what routing logic switches on — in particular the
// hybrid router, which must distinguish "retry the fast path" from "this
// transaction can never succeed on the fast path, go slow now" without
// string comparisons on the abort hot path.
type Code uint8

// Abort codes, one per Reason* constant.
const (
	CodeConflict Code = iota // R/W conflict with a concurrent transaction
	CodeCycle                // ROCoCo validation found a dependency cycle
	CodeWindow               // sliding-window overflow (§4.2)
	CodeCapacity             // HTM/fast-path capacity overflow
	CodeSpurious             // HTM micro-architectural abort
	CodeFallback             // fast path aborted because a fallback/irrevocable turn is pending
	CodeEngine               // validation engine unavailable
	CodeWatchdog             // runtime watchdog force-aborted a stuck transaction
	CodeExplicit             // application requested abort
	numCodes
)

// codeReasons maps Code → string reason, the report format.
var codeReasons = [numCodes]string{
	CodeConflict: ReasonConflict,
	CodeCycle:    ReasonCycle,
	CodeWindow:   ReasonWindow,
	CodeCapacity: ReasonCapacity,
	CodeSpurious: ReasonSpurious,
	CodeFallback: ReasonFallback,
	CodeEngine:   ReasonEngine,
	CodeWatchdog: ReasonWatchdog,
	CodeExplicit: ReasonExplicit,
}

// Reason returns the string reason for the code.
func (c Code) Reason() string {
	if c < numCodes {
		return codeReasons[c]
	}
	return ReasonExplicit
}

// Structural reports whether the abort names a property of the transaction
// or the runtime rather than a transient collision: retrying the same
// attempt on the same path hits the same wall. The hybrid router treats a
// structural fast-path abort as "route this attempt slow now" where a
// transient one means "the winner is gone, retry fast".
func (c Code) Structural() bool {
	switch c {
	case CodeCapacity, CodeFallback, CodeWindow, CodeEngine, CodeWatchdog:
		return true
	}
	return false
}

// Hard reports whether the abort names a condition that an immediate retry
// cannot improve: the transaction fell behind the sliding window or the
// validation engine is unavailable, so the retry loop sleeps instead of
// spinning.
func (c Code) Hard() bool { return c == CodeWindow || c == CodeEngine }

// abortErrs are the preallocated singleton aborts AbortCode returns — the
// only AbortErrors a runtime hands out, so no abort allocates; the hotalloc
// gate enforces that over the hybrid begin/read/write/commit functions.
var abortErrs = func() [numCodes]*AbortError {
	var a [numCodes]*AbortError
	for c := Code(0); c < numCodes; c++ {
		a[c] = &AbortError{Reason: c.Reason(), Code: c}
	}
	return a
}()

// AbortCode returns the preallocated AbortError for the code. It never
// allocates, so it is safe inside //tm:hotpath functions.
//
//tm:hotpath
func AbortCode(c Code) error {
	if c >= numCodes {
		c = CodeExplicit
	}
	return abortErrs[c]
}

// CodeOf reports whether err is (or wraps) a transactional abort and
// returns its structured code.
func CodeOf(err error) (Code, bool) {
	if ae, ok := err.(*AbortError); ok {
		return ae.Code, true // the unwrapped singleton: no allocation
	}
	var ae *AbortError
	if errors.As(err, &ae) {
		return ae.Code, true
	}
	return 0, false
}

// SiteRunner is implemented by runtimes that route per static transaction
// site (a caller PC or an application-chosen ID): BeginSite is Begin with
// the site attached, so per-site statistics accumulate across attempts of
// the same logical atomic block. RunSite uses it when available; plain Run
// derives a site from the caller's PC so existing applications get
// per-site routing without code changes.
type SiteRunner interface {
	BeginSite(thread int, site uint64) (Txn, error)
}

// siteID carries an optional site through the retry loop.
type siteID struct {
	id uint64
	ok bool
}

// autoSite derives a site from the caller's program counter when (and only
// when) the runtime can use one. skip counts stack frames exactly as
// runtime.Caller: autoSite's caller passes the depth of the application
// frame above itself. The site is the raw return address, read into a
// one-element local array: no Frames are built, no file:line is decoded
// and nothing is allocated — a call costs one short stack unwind.
func autoSite(m TM, skip int) siteID {
	if _, ok := m.(SiteRunner); !ok {
		return siteID{}
	}
	var pc [1]uintptr
	if runtime.Callers(skip+1, pc[:]) == 0 {
		return siteID{}
	}
	return siteID{id: uint64(pc[0]), ok: true}
}

// RunSite is Run with an explicit site ID. On runtimes without SiteRunner
// the site is ignored and RunSite behaves exactly like Run.
func RunSite(m TM, thread int, site uint64, fn func(Txn) error) error {
	return runLoop(bound{}, m, thread, siteID{id: site, ok: true}, nil, DefaultBackoff, fn)
}

// RunSiteBackoff is RunSite with an explicit backoff policy.
func RunSiteBackoff(m TM, thread int, site uint64, pol BackoffPolicy, fn func(Txn) error) error {
	return runLoop(bound{}, m, thread, siteID{id: site, ok: true}, nil, pol, fn)
}
