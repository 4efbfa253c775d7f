package serve

import (
	"time"

	"rococotm/internal/tm"
)

// Tuning overrides the knobs a server derives or fixes, so tests reach
// a pinned or wide concurrency limit, queue overflow, the attempt cap, a
// dry retry bucket and fast controller ticks. A zero field keeps the
// server's value; MaxInflight also sets the queue bound to 4×MaxInflight
// unless QueueCap is given.
type Tuning struct {
	MaxInflight         int
	TargetP99           time.Duration
	QueueCap            int
	MaxAttempts         int
	RetryTokensPerAdmit float64
	RetryTokenCap       float64
	AdaptEvery          time.Duration
	TierAfter           int
}

// NewTuned is New with t applied before the server starts.
func NewTuned(m tm.TM, cfg Config, t Tuning) *Server {
	s := newServer(m, cfg)
	if t.MaxInflight != 0 {
		s.maxInflight = int64(t.MaxInflight)
		s.queueCap = 4 * s.maxInflight
	}
	if t.TargetP99 != 0 {
		s.targetP99 = t.TargetP99
	}
	if t.QueueCap != 0 {
		s.queueCap = int64(t.QueueCap)
	}
	if t.MaxAttempts != 0 {
		s.maxAttempts = t.MaxAttempts
	}
	if t.RetryTokensPerAdmit != 0 {
		s.tokenRefill = int64(t.RetryTokensPerAdmit * tokenScale)
	}
	if t.RetryTokenCap != 0 {
		s.tokenCap = int64(t.RetryTokenCap * tokenScale)
	}
	if t.AdaptEvery != 0 {
		s.adaptEvery = t.AdaptEvery
	}
	if t.TierAfter != 0 {
		s.tierAfter = t.TierAfter
	}
	s.start()
	return s
}
