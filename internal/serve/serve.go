// Package serve is the TM-as-a-service front end: an in-process request
// server that drives OLTP-shaped transactions from a simulated client
// fleet through the ROCoCoTM runtime while staying live under overload.
//
// The problem it solves is the classic saturation collapse: an optimistic
// TM under 2× its capacity does not degrade gracefully on its own — retry
// storms multiply the offered load, validations queue up behind each other,
// tail latency runs away, and goodput falls off a cliff.
// The server interposes three mechanisms between clients and the tm retry
// loop:
//
//   - Admission control: a concurrency limit adapted by AIMD, on a 10ms
//     controller tick, from live pressure signals (windowed p99 drift
//     against the SLO, engine errors, watchdog fires, retry-budget
//     exhaustions). Work beyond the limit is shed at the door — cheaply,
//     before it holds any transactional state.
//
//   - Deadlines: every request carries a latency budget, mapped to a
//     deadline on tm.RunUntil, which observes it at attempt boundaries:
//     before each attempt, after the closure returns but before
//     validation, and after a lost validation. A closure is never
//     interrupted mid-attempt, and a request is never cancelled
//     mid-commit (the runtime's commit-wins-cancel contract). A request
//     whose estimated queue wait already exceeds its remaining budget is
//     shed at admission rather than admitted to time out.
//
//   - Graceful degradation tiers: under sustained pressure the server
//     sheds the lowest-priority class first (Batch, then Normal writes);
//     at the deepest tier read-only requests are demoted to snapshot
//     service via tm.RunReadOnly, which on a durable runtime can never
//     abort or conflict. The service degrades by policy, never collapses.
//
// The server owns a pool of tm threads, not goroutines: an admitted
// request runs on its caller's goroutine under a thread id from the pool,
// waited for in arrival order when every id is busy (by at most
// 8×Workers requests), so nothing is handed off or allocated per
// request. Retries are bounded by 16 attempts per request and a shared
// retry-token bucket. Close waits for the Do calls in flight.
//
// Every admitted request resolves to exactly one outcome — committed,
// deadline-expired, or finally aborted — and every offered request is
// either admitted or shed, so the accounting identity
//
//	Offered == Shed + Committed + Expired + AbortedFinal
//
// holds at quiescence; Stats.CheckAccounting certifies it.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rococotm/internal/hist"
	"rococotm/internal/tm"
)

// Class is a request priority class. Shedding order under pressure is
// Batch first, then Normal, while High is shed only by the concurrency
// limit itself — a degraded service still serves its most important
// traffic.
type Class int

const (
	// Batch is best-effort traffic: analytics sweeps, background fixups.
	Batch Class = iota
	// Normal is the default interactive class.
	Normal
	// High is latency-critical traffic, shed last.
	High
)

func (c Class) String() string {
	switch c {
	case Batch:
		return "batch"
	case Normal:
		return "normal"
	case High:
		return "high"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Outcome is the terminal disposition of one offered request.
type Outcome int

const (
	// Committed: the transaction committed within its deadline.
	Committed Outcome = iota
	// Shed: rejected at admission (overload, tier policy, or a queue wait
	// already exceeding the deadline budget). No transactional work ran.
	Shed
	// Expired: admitted, but the deadline fired before a commit; the
	// in-flight attempt was rolled back at a transactional boundary.
	Expired
	// AbortedFinal: admitted, but retries were exhausted (attempt cap or
	// retry-token budget) or the closure failed non-transactionally.
	AbortedFinal
)

func (o Outcome) String() string {
	switch o {
	case Committed:
		return "committed"
	case Shed:
		return "shed"
	case Expired:
		return "expired"
	case AbortedFinal:
		return "aborted"
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// ErrShed is wrapped by every admission rejection.
var ErrShed = errors.New("serve: shed")

// ErrClosed is returned for requests offered after Close began.
var ErrClosed = errors.New("serve: server closed")

// errRetryLimit and errRetryBudget are the in-band signals that stop the
// tm retry loop: returned from the closure they are non-transactional
// errors, so runLoop rolls the attempt back and propagates instead of
// retrying.
var (
	errRetryLimit  = errors.New("serve: per-request retry limit exhausted")
	errRetryBudget = errors.New("serve: retry-token budget exhausted")
)

// Request is one unit of client work.
type Request struct {
	// Class is the priority class; the zero value is Batch (shed first).
	Class Class
	// Budget is the end-to-end latency budget, measured from Do. Zero
	// means DefaultBudget.
	Budget time.Duration
	// ReadOnly marks the closure as write-free. Read-only requests stay
	// servable at the deepest degradation tier (via snapshot service on
	// runtimes that support it) and must not Write — a Write fails the
	// request with tm.ErrReadOnlyWrite when degraded service routes it
	// through RunReadOnly.
	ReadOnly bool
	// Fn is the transaction body. It may be re-executed once per attempt;
	// any non-transactional error it returns finishes the request as
	// AbortedFinal.
	Fn func(tm.Txn) error
}

// Config parameterizes a Server. Zero values take the documented defaults.
type Config struct {
	// Workers is the number of tm threads the server owns, and so the
	// most requests executing at once. A request runs on its caller's
	// goroutine under one of the ids 0 … Workers-1, so the runtime's
	// MaxThreads must cover Workers. Default 4.
	Workers int

	// DefaultBudget applies to requests with a zero Budget. Default 50ms.
	DefaultBudget time.Duration
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.DefaultBudget <= 0 {
		c.DefaultBudget = 50 * time.Millisecond
	}
}

const (
	// maxAttempts caps transactional attempts per request (first try plus
	// retries). It is also the retry loop's escalation budget: escalation
	// is reserved for un-deadlined work, and a serving request gives up
	// long before.
	maxAttempts = 16
	// retryTokensPerAdmit is the retry-budget replenishment: each admitted
	// request earns this many retry tokens for the shared bucket, and
	// every retry (attempt beyond the first) spends one. An exhausted
	// bucket finishes the request as AbortedFinal instead of letting retry
	// storms multiply offered load.
	retryTokensPerAdmit = 3
	// retryTokenCap bounds the bucket.
	retryTokenCap = 64 * retryTokensPerAdmit
	// adaptEvery is the controller tick.
	adaptEvery = 10 * time.Millisecond
	// tierAfter is how many consecutive pressured ticks at the minimum
	// limit escalate the degradation tier (and how many calm ticks step
	// it back).
	tierAfter = 3
	// minInflight floors the AIMD decrease.
	minInflight = 1
)

// Stats is a snapshot of the server's outcome accounting and controller
// state.
type Stats struct {
	Offered      uint64 // requests presented to Do
	Shed         uint64 // rejected at admission
	Committed    uint64
	Expired      uint64
	AbortedFinal uint64

	ShedClass    uint64 // shed by tier policy (class too low)
	ShedLimit    uint64 // shed by the concurrency limit / full queue
	ShedDeadline uint64 // shed because estimated wait exceeded the budget

	Retries        uint64 // attempts beyond each request's first
	BudgetExhausts uint64 // requests finished by the retry-token budget
	SnapshotServed uint64 // read-only requests served via RunReadOnly

	Limit int // current concurrency limit
	Tier  int // current degradation tier (0 = full service)

	LimitDecreases uint64 // AIMD multiplicative decreases
	TierEntries    uint64 // tier escalations
}

// CheckAccounting verifies the outcome identity at quiescence: every
// offered request resolved exactly once.
func (s Stats) CheckAccounting() error {
	if got := s.Shed + s.Committed + s.Expired + s.AbortedFinal; got != s.Offered {
		return fmt.Errorf("serve: accounting violated: shed %d + committed %d + expired %d + aborted %d = %d, offered %d",
			s.Shed, s.Committed, s.Expired, s.AbortedFinal, got, s.Offered)
	}
	if got := s.ShedClass + s.ShedLimit + s.ShedDeadline; got != s.Shed {
		return fmt.Errorf("serve: shed breakdown %d != shed %d", got, s.Shed)
	}
	return nil
}

func (s Stats) String() string {
	return fmt.Sprintf("offered=%d committed=%d shed=%d (class=%d limit=%d deadline=%d) expired=%d aborted=%d retries=%d limit=%d tier=%d",
		s.Offered, s.Committed, s.Shed, s.ShedClass, s.ShedLimit, s.ShedDeadline,
		s.Expired, s.AbortedFinal, s.Retries, s.Limit, s.Tier)
}

// Server is the TM-as-a-service front end. Construct with New, offer work
// with Do, and Close to drain.
type Server struct {
	cfg Config
	m   tm.TM

	threads chan int // free tm thread ids
	lat     *hist.Histogram

	inflight atomic.Int64 // admitted, not yet resolved
	waiting  atomic.Int64 // admitted, not yet holding a thread
	limit    atomic.Int64 // current concurrency limit
	tier     atomic.Int64 // degradation tier: 0 none, 1 shed Batch, 2 read-mostly
	ewmaSvc  atomic.Int64 // EWMA of per-request service ns (thread held)

	retryTokens atomic.Int64 // fixed-point (×1024) retry-token bucket

	// maxInflight is the concurrency limit's start and ceiling (2×Workers),
	// targetP99 the windowed p99 the controller defends (4/5 of
	// DefaultBudget), queueCap the admission queue's bound (4×maxInflight);
	// they and the constants above (the token rates fixed-point) are test
	// seams set before start.
	maxInflight int64
	targetP99   time.Duration
	queueCap    int64
	maxAttempts int
	tokenRefill int64
	tokenCap    int64
	adaptEvery  time.Duration
	tierAfter   int

	// admitMu serializes admission against Close: Do admits under the
	// read lock, Close takes the write lock after flipping closed, so
	// every admitted request is counted in active before Close waits.
	admitMu sync.RWMutex
	closed  atomic.Bool
	stopCtl chan struct{}
	active  sync.WaitGroup // admitted requests not yet resolved
	ctl     sync.WaitGroup

	offered                        atomic.Uint64
	outcomes                       [AbortedFinal + 1]atomic.Uint64 // indexed by Outcome
	shedClass, shedLimit, shedDead atomic.Uint64
	retries, budgetExhausts        atomic.Uint64
	snapServed                     atomic.Uint64
	limitDecreases, tierEntries    atomic.Uint64
}

const tokenScale = 1024 // fixed-point scale for the retry-token bucket

// New starts a server over runtime m. The runtime must be configured with
// at least cfg.Workers threads.
func New(m tm.TM, cfg Config) *Server {
	s := newServer(m, cfg)
	s.start()
	return s
}

// newServer builds a server that start has not yet started.
func newServer(m tm.TM, cfg Config) *Server {
	cfg.fill()
	maxInflight := 2 * int64(cfg.Workers)
	return &Server{
		cfg:         cfg,
		m:           m,
		threads:     make(chan int, cfg.Workers),
		lat:         hist.New(),
		stopCtl:     make(chan struct{}),
		maxInflight: maxInflight,
		targetP99:   cfg.DefaultBudget * 4 / 5,
		queueCap:    4 * maxInflight,
		maxAttempts: maxAttempts,
		tokenRefill: retryTokensPerAdmit * tokenScale,
		tokenCap:    retryTokenCap * tokenScale,
		adaptEvery:  adaptEvery,
		tierAfter:   tierAfter,
	}
}

// start fills the thread pool and the retry-token bucket and starts the
// controller.
func (s *Server) start() {
	s.limit.Store(s.maxInflight)
	s.retryTokens.Store(s.tokenCap)
	for i := 0; i < s.cfg.Workers; i++ {
		s.threads <- i
	}
	s.ctl.Add(1)
	go s.controller()
}

// Do offers one request and blocks until it resolves; an admitted request
// executes on the calling goroutine. The returned error is nil for
// Committed; for Shed it wraps ErrShed, for Expired it is the deadline
// error, for AbortedFinal the terminal failure. A panic in r.Fn reaches
// the caller after the request is counted AbortedFinal and its thread is
// back in the pool.
func (s *Server) Do(r Request) (Outcome, error) {
	if r.Budget <= 0 {
		r.Budget = s.cfg.DefaultBudget
	}
	s.admitMu.RLock()
	thread, err := s.admit(r)
	s.admitMu.RUnlock()
	if err != nil {
		return Shed, err
	}
	arrive := time.Now()
	start := arrive
	if thread < 0 {
		// A returned id goes straight to the longest-parked receiver, so
		// waiters get threads in arrival order.
		thread = <-s.threads
		s.waiting.Add(-1)
		start = time.Now()
	}
	return s.execute(thread, r, arrive, start)
}

// admit runs the admission pipeline under the read lock. It returns the
// tm thread the request runs on, -1 if it must wait for one, or the
// error it is shed with.
func (s *Server) admit(r Request) (int, error) {
	if s.closed.Load() {
		return -1, ErrClosed
	}
	s.offered.Add(1)

	// Tier policy: shed low classes before holding any state.
	tier := s.tier.Load()
	if tier >= 1 && r.Class == Batch {
		return s.reject(&s.shedClass, errShedTier)
	}
	if tier >= 2 && !r.ReadOnly && r.Class != High {
		return s.reject(&s.shedClass, errShedTierWrite)
	}

	// Concurrency limit: admitted work (waiting + executing) stays under
	// the adaptive limit.
	limit := s.limit.Load()
	if s.inflight.Load() >= limit {
		return s.reject(&s.shedLimit, errShedLimit)
	}

	// Deadline-aware shedding: if the estimated wait for a thread alone
	// exceeds the budget, admission would only manufacture a timeout.
	if svc := s.ewmaSvc.Load(); svc > 0 {
		est := time.Duration((s.waiting.Load() + 1) * svc / int64(s.cfg.Workers))
		if est > r.Budget {
			return s.reject(&s.shedDead, errShedWait)
		}
	}

	// Take a free thread without blocking; without one the request waits,
	// and at most queueCap requests wait.
	thread := -1
	select {
	case thread = <-s.threads:
	default:
		if s.waiting.Add(1) > s.queueCap {
			s.waiting.Add(-1)
			return s.reject(&s.shedLimit, errShedQueue)
		}
	}
	s.inflight.Add(1)
	s.retryRefill()
	s.active.Add(1)
	return thread, nil
}

// Shed-path errors are prebuilt: under overload the reject path runs at
// the full offered rate — orders of magnitude hotter than the serve path
// — and must not allocate, or the act of shedding starves the requests it
// is protecting. The per-cause counters carry the diagnostic detail.
var (
	errShedTier      = fmt.Errorf("%w: degradation tier sheds this class", ErrShed)
	errShedTierWrite = fmt.Errorf("%w: degradation tier sheds writes", ErrShed)
	errShedLimit     = fmt.Errorf("%w: admitted work at concurrency limit", ErrShed)
	errShedWait      = fmt.Errorf("%w: estimated queue wait exceeds budget", ErrShed)
	errShedQueue     = fmt.Errorf("%w: queue full", ErrShed)
)

// reject accounts one shed request against the given breakdown counter.
func (s *Server) reject(c *atomic.Uint64, err error) (int, error) {
	c.Add(1)
	s.outcomes[Shed].Add(1)
	return -1, err
}

// retryRefill credits the token bucket for one admission.
func (s *Server) retryRefill() {
	if v := s.retryTokens.Add(s.tokenRefill); v > s.tokenCap {
		s.retryTokens.Store(s.tokenCap)
	}
}

// retrySpend takes one retry token; false means the bucket is dry.
func (s *Server) retrySpend() bool {
	if v := s.retryTokens.Add(-tokenScale); v < 0 {
		s.retryTokens.Add(tokenScale)
		return false
	}
	return true
}

// execute runs one admitted request to its terminal outcome on thread,
// which it then hands back. The release is deferred, so a panicking Fn
// (whose attempt tm rolls back) unwinds to the caller of Do with the
// request counted AbortedFinal and the thread free for the next one.
func (s *Server) execute(thread int, r Request, arrive, start time.Time) (outcome Outcome, err error) {
	outcome = AbortedFinal
	defer func() {
		s.outcomes[outcome].Add(1)
		// One clock read: time.Since reads only the monotonic clock.
		sojourn := time.Since(arrive) // wait for a thread + service
		s.lat.Record(sojourn)
		s.observeService(sojourn - start.Sub(arrive))
		s.inflight.Add(-1)
		s.threads <- thread
		s.active.Done()
	}()
	dead := arrive.Add(r.Budget)
	switch {
	case !start.Before(dead):
		// Expired waiting for a thread: resolve without touching the runtime.
		return Expired, context.DeadlineExceeded
	case r.ReadOnly && s.tier.Load() >= 2:
		// Deepest tier: read-only traffic is demoted to snapshot service —
		// abort-free on a Snapshotter runtime, and never competing with
		// the writes the tier is protecting.
		s.snapServed.Add(1)
		if err = tm.RunReadOnly(s.m, thread, r.Fn); err != nil {
			return AbortedFinal, err
		}
		return Committed, nil
	default:
		return s.runTxn(thread, r.Fn, dead)
	}
}

// runTxn drives one request through the tm retry loop with its deadline
// and retry bounds attached.
func (s *Server) runTxn(thread int, fn func(tm.Txn) error, dead time.Time) (Outcome, error) {
	attempts := 0
	budgetDry := false
	err := tm.RunUntil(dead, s.m, thread, tm.BackoffPolicy{EscalateAfter: s.maxAttempts}, func(x tm.Txn) error {
		attempts++
		if attempts > 1 {
			s.retries.Add(1)
			if attempts > s.maxAttempts {
				return errRetryLimit
			}
			if !s.retrySpend() {
				budgetDry = true
				return errRetryBudget
			}
		}
		return fn(x)
	})
	switch {
	case err == nil:
		return Committed, nil
	case errors.Is(err, context.DeadlineExceeded):
		return Expired, err
	default:
		if budgetDry {
			s.budgetExhausts.Add(1)
		}
		return AbortedFinal, err
	}
}

// observeService folds one service duration into the EWMA the admission
// wait estimate uses (α = 1/8).
func (s *Server) observeService(d time.Duration) {
	ns := int64(d)
	for {
		old := s.ewmaSvc.Load()
		var next int64
		if old == 0 {
			next = ns
		} else {
			next = old + (ns-old)/8
		}
		if s.ewmaSvc.CompareAndSwap(old, next) {
			return
		}
	}
}

// controller is the AIMD loop: each tick it classifies the window as
// pressured or calm from the live signals and adjusts the concurrency
// limit (multiplicative decrease, additive increase) and, at the extremes,
// the degradation tier. The runtime's signals are its cumulative counts of
// attempts ended by an unavailable engine and of watchdog fires; any
// growth between ticks is pressure.
func (s *Server) controller() {
	defer s.ctl.Done()
	tick := time.NewTicker(s.adaptEvery)
	defer tick.Stop()
	var prevLat hist.Snapshot
	prevRT := s.m.Stats()
	pressured, calm := 0, 0
	var lastExhaust uint64
	for {
		select {
		case <-s.stopCtl:
			return
		case <-tick.C:
		}

		pressure := false
		cur := s.lat.Snapshot()
		win := cur.Sub(prevLat)
		prevLat = cur
		if win.Count() > 0 && win.P99() > s.targetP99 {
			pressure = true
		}
		rt := s.m.Stats()
		if rt.Reasons[tm.ReasonEngine] > prevRT.Reasons[tm.ReasonEngine] ||
			rt.WatchdogFires > prevRT.WatchdogFires {
			pressure = true
		}
		prevRT = rt
		if exh := s.budgetExhausts.Load(); exh != lastExhaust {
			// Retry-budget exhaustions this tick: the loop is eating more
			// retries than admissions replenish — classic metastable
			// retry-storm territory.
			lastExhaust = exh
			pressure = true
		}

		limit := s.limit.Load()
		if pressure {
			pressured++
			calm = 0
			next := limit * 7 / 10
			if next < minInflight {
				next = minInflight
			}
			if next < limit {
				s.limit.Store(next)
				s.limitDecreases.Add(1)
			} else if pressured >= s.tierAfter && s.tier.Load() < 2 {
				// Limit already at the floor and still pressured: step the
				// degradation tier instead of collapsing the limit.
				s.tier.Add(1)
				s.tierEntries.Add(1)
				pressured = 0
			}
		} else {
			calm++
			pressured = 0
			if limit < s.maxInflight {
				s.limit.Store(limit + 1)
			}
			if calm >= s.tierAfter && s.tier.Load() > 0 {
				s.tier.Add(-1)
				calm = 0
			}
		}
	}
}

// Stats snapshots the accounting and controller state.
func (s *Server) Stats() Stats {
	return Stats{
		Offered:        s.offered.Load(),
		Shed:           s.outcomes[Shed].Load(),
		Committed:      s.outcomes[Committed].Load(),
		Expired:        s.outcomes[Expired].Load(),
		AbortedFinal:   s.outcomes[AbortedFinal].Load(),
		ShedClass:      s.shedClass.Load(),
		ShedLimit:      s.shedLimit.Load(),
		ShedDeadline:   s.shedDead.Load(),
		Retries:        s.retries.Load(),
		BudgetExhausts: s.budgetExhausts.Load(),
		SnapshotServed: s.snapServed.Load(),
		Limit:          int(s.limit.Load()),
		Tier:           int(s.tier.Load()),
		LimitDecreases: s.limitDecreases.Load(),
		TierEntries:    s.tierEntries.Load(),
	}
}

// Latency snapshots the sojourn-time histogram (thread wait + service).
func (s *Server) Latency() hist.Snapshot { return s.lat.Snapshot() }

// Tier returns the current degradation tier (0 = full service).
func (s *Server) Tier() int { return int(s.tier.Load()) }

// Limit returns the current concurrency limit.
func (s *Server) Limit() int { return int(s.limit.Load()) }

// Close rejects new work, waits for the admitted requests' Do calls to
// return, and stops the controller. Safe to call more than once.
func (s *Server) Close() {
	if s.closed.Swap(true) {
		return
	}
	// Admission holds the read lock from its closed check to active.Add,
	// so past this write-lock barrier nothing more is admitted.
	s.admitMu.Lock()
	s.admitMu.Unlock()
	s.active.Wait()
	close(s.stopCtl)
	s.ctl.Wait()
}
