package main

import (
	"errors"
	"fmt"
	"time"

	"rococotm/internal/hybrid"
	"rococotm/internal/mem"
	"rococotm/internal/mvstore"
	"rococotm/internal/rococotm"
	"rococotm/internal/serve"
	"rococotm/internal/stamp"
	"rococotm/internal/tm"
	"rococotm/internal/tmds"
	"rococotm/internal/wal"
)

// Shared shape of every workload (README "Run shape").
const (
	heapWords  = 1 << 22 // 32 MB of words: bank or tree plus every node a window can allocate
	maxThreads = 3       // two workers and the oracle's thread
	oracleTh   = 2
	bankInit   = 1_000_000_000 // balances never run dry at amount 1
	keySpace   = 1 << 15       // index keys; half of them present in the steady state
	keyFill    = 1 << 14
)

// Which stack a workload drives.
const (
	stackEngine = iota // rococotm.TM, engine-validated commits
	stackHybrid        // hybrid.TM, uninstrumented fast path
	stackFull          // serve.Server over a durable rococotm.TM
)

type opKind uint8

const (
	opPayment opKind = iota // SendPayment(a,b,1): 2 reads, 2 writes
	opBalance               // Balance(a): 2 reads
	opInsert                // RBTree.Insert on an owned key
	opRemove                // RBTree.Remove on an owned key
	opFind                  // RBTree.Find on an owned key
	numOps
)

var opNames = [numOps]string{"payment", "balance", "insert", "remove", "find"}

// readOnlyOp says which class a latency sample belongs to.
var readOnlyOp = [numOps]bool{opBalance: true, opFind: true}

// opSite is the fixed tm.RunSite id of each update operation, so hybrid
// routing does not depend on the harness's call stack. Read-only operations
// go through tm.RunReadOnly, whose site is a fixed PC inside package tm.
var opSite = [numOps]uint64{opPayment: 0xb1, opInsert: 0xb2, opRemove: 0xb3}

type workload struct {
	name     string
	why      string
	stack    int
	accounts int // 0 selects the index workload
	// warmup is the fixed per-worker operation count run before the
	// measured window. It is sized so that setup_s on the seed is 0.3-0.6 s
	// on the reference host; a faster program shows as a shorter setup_s.
	warmup int
}

var workloads = []workload{
	{"bank-engine", "short 2r/2w transfers, no conflicts: nearly all time is the engine-validated commit pipeline", stackEngine, 65536, 140_000},
	{"index-engine", "red-black tree lookups and updates: tens of instrumented reads per transaction, engine visited by at most 30%", stackEngine, 0, 70_000},
	{"bank-hybrid", "the bank mix on the hybrid runtime: commits take the uninstrumented fast path and bypass the engine", stackHybrid, 65536, 250_000},
	{"bank-full", "the bank mix as serve requests over a durable runtime: client to WAL as one latency, ordered commit arm", stackFull, 65536, 40_000},
	{"bank-hot", "the bank mix over 16 accounts: the engine path under real cycle aborts, retries and backoff", stackEngine, 16, 110_000},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// mix64 is splitmix64's finalizer: it derives independent stream seeds from
// (seed, workload, round, worker).
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func streamSeed(seed uint64, workload string, round, worker int) uint64 {
	z := mix64(seed)
	for _, c := range []byte(workload) {
		z = mix64(z ^ uint64(c))
	}
	return mix64(mix64(z^uint64(round)) ^ uint64(worker)<<32)
}

// op is one generated operation; the program under test sees nothing else.
type op struct {
	kind   opKind
	a, b   int  // accounts, or a = key
	sample bool // time this one (1 in 64)
}

// generator produces a stationary operation stream: the mix and the key
// distribution do not depend on how long the stream has run.
type generator struct {
	rng      *stamp.RNG
	accounts int
	worker   int
	shadow   []bool // index: the keys this worker has in the tree
}

func (g *generator) next() op {
	r := g.rng.Next()
	o := op{sample: r>>58 == 0}
	pick := int(r>>32) % 100
	if g.accounts > 0 {
		// 80 % SendPayment, 20 % Balance; a != b uniform.
		o.a = int(r % uint64(g.accounts))
		if pick < 80 {
			o.kind = opPayment
			o.b = (o.a + 1 + int((r>>16)%uint64(g.accounts-1))) % g.accounts
		} else {
			o.kind = opBalance
		}
		return o
	}
	// 70 % Find, 30 % update, on a key this worker owns (k % 2 == worker),
	// so its shadow set predicts every result. An update inserts the key if
	// it is absent and removes it if present: every update writes (a blind
	// Insert/Remove is a read-only no-op half of the time, which put the
	// median update latency in the gap between two modes), and the fill
	// settles at one half, 15 % Insert / 15 % Remove.
	o.a = int(r%(keySpace/2))*2 + g.worker
	switch {
	case pick < 70:
		o.kind = opFind
	case g.shadow[o.a]:
		o.kind = opRemove
	default:
		o.kind = opInsert
	}
	return o
}

func keyValue(k int) mem.Word { return mem.Word(k)*3 + 1 }

// world is one round's program under test plus what the oracles need.
type world struct {
	wl     workload
	heap   *mem.Heap
	bank   *tmds.SmallBank
	tree   tmds.RBTree
	shadow [][]bool // per worker, indexed by key

	inner tm.TM // the runtime itself
	m     tm.TM // what workers and the server call: inner, or its tracing proxy
	px    *proxy
	srv   *serve.Server
	slow  *rococotm.TM // engine-owning runtime (inner, or hybrid's slow half)

	walDev *wal.MemDevice
	closed bool
}

// populate fills a fresh heap non-transactionally. It is deterministic in
// (seed, workload, round), so the recovery oracle can rebuild the initial
// image.
func populate(wl workload, heap *mem.Heap, seed uint64, round, workers int) (*tmds.SmallBank, tmds.RBTree, [][]bool, error) {
	if wl.accounts > 0 {
		bank, err := tmds.NewSmallBank(heap, wl.accounts, bankInit)
		return bank, tmds.RBTree{}, nil, err
	}
	tree, err := tmds.NewRBTree(heap)
	if err != nil {
		return nil, tree, nil, err
	}
	shadow := make([][]bool, workers)
	for i := range shadow {
		shadow[i] = make([]bool, keySpace)
	}
	rng := stamp.NewRNG(streamSeed(seed, wl.name, round, -1))
	direct := stamp.Direct{H: heap}
	for n := 0; n < keyFill; {
		k := rng.Intn(keySpace)
		ok, err := tree.Insert(direct, mem.Word(k), keyValue(k))
		if err != nil {
			return nil, tree, nil, err
		}
		if ok {
			shadow[k%workers][k] = true
			n++
		}
	}
	return nil, tree, shadow, nil
}

// buildWorld allocates, populates and constructs one round's stack. The
// returned stamps split setup time into its phases.
func buildWorld(spec roundSpec, wl workload) (w *world, populated, constructed time.Time, err error) {
	w = &world{wl: wl, heap: mem.NewHeap(heapWords)}
	w.bank, w.tree, w.shadow, err = populate(wl, w.heap, spec.Seed, spec.Round, spec.Workers)
	if err != nil {
		return nil, populated, constructed, err
	}
	populated = time.Now()

	cfg := rococotm.Config{MaxThreads: maxThreads, MeasurePhases: spec.Traced}
	switch wl.stack {
	case stackEngine:
		w.slow = rococotm.New(w.heap, cfg)
		w.inner = w.slow
	case stackHybrid:
		h := hybrid.New(w.heap, hybrid.Config{Slow: cfg})
		w.slow = h.Slow()
		w.inner = h
	case stackFull:
		// Flush policy, fixed: group commit every 1 ms (wal default),
		// commits do not wait for their flush. The device is memory: on
		// the shared host a file-backed log made this workload follow the
		// disk of the neighbours (66-132 ktxn/s from one ten-minute regime
		// to the next, README "Spread"); the disk has a probe of its own
		// (wal.file_sync_us).
		w.walDev = wal.NewMemDevice(nil)
		d, _, err := rococotm.RecoverDurable(w.walDev, w.heap, wal.Options{}, mvstore.Config{}, false)
		if err != nil {
			return nil, populated, constructed, err
		}
		cfg.Durable = d
		w.slow = rococotm.New(w.heap, cfg)
		w.inner = w.slow
	}
	w.m = w.inner
	if spec.Traced {
		w.px = newProxy(w.inner, wl.stack == stackFull)
		w.m = w.px.tm()
	}
	if wl.stack == stackFull {
		w.srv = serve.New(w.m, serve.Config{Workers: spec.Workers, DefaultBudget: requestBudget})
	}
	constructed = time.Now()
	return w, populated, constructed, nil
}

// stopServer closes the server (draining admitted work) but leaves the runtime
// up for the oracle.
func (w *world) stopServer() {
	if w.srv != nil {
		w.srv.Close()
	}
}

func (w *world) close() {
	if w.closed {
		return
	}
	w.closed = true
	w.inner.Close()
}

// oracle checks the values the round left behind, on its own thread, after
// the workers stopped. For the full stack it also closes the runtime,
// recovers the round's log into a freshly populated heap and requires every
// account word to equal the live heap. recoverMS is 0 elsewhere.
func (w *world) oracle(spec roundSpec) (recoverMS float64, err error) {
	if w.bank != nil {
		err = tm.RunReadOnly(w.inner, oracleTh, w.bank.CheckConservation)
	} else {
		err = w.checkTree()
	}
	if err != nil || w.wl.stack != stackFull {
		return 0, err
	}
	w.close()
	fresh := mem.NewHeap(heapWords)
	if _, _, _, err := populate(w.wl, fresh, spec.Seed, spec.Round, spec.Workers); err != nil {
		return 0, err
	}
	start := time.Now()
	d, _, err := rococotm.RecoverDurable(w.walDev, fresh, wal.Options{}, mvstore.Config{}, false)
	if err != nil {
		return 0, err
	}
	recoverMS = float64(time.Since(start)) / 1e6
	if err := d.Log.Close(); err != nil {
		return recoverMS, err
	}
	for a := mem.Addr(1); a < mem.Addr(w.heap.InUse()); a++ {
		if got, want := fresh.Load(a), w.heap.Load(a); got != want {
			return recoverMS, fmt.Errorf("recovery: word %d is %d after restart, %d live", a, got, want)
		}
	}
	return recoverMS, nil
}

// checkTree walks the tree in one transaction: keys strictly ascending,
// values intact, membership equal to the union of the workers' shadows.
func (w *world) checkTree() error {
	want := 0
	for _, s := range w.shadow {
		for _, in := range s {
			if in {
				want++
			}
		}
	}
	var violation error
	err := tm.RunReadOnly(w.inner, oracleTh, func(t tm.Txn) error {
		violation = nil
		n, prev := 0, -1
		if err := w.tree.ForEach(t, func(k, v mem.Word) bool {
			key := int(k)
			switch {
			case key <= prev:
				violation = fmt.Errorf("index: key %d after %d", key, prev)
			case key >= keySpace || !w.shadow[key%len(w.shadow)][key]:
				violation = fmt.Errorf("index: key %d in the tree but in no shadow set", key)
			case v != keyValue(key):
				violation = fmt.Errorf("index: key %d holds %d", key, v)
			}
			prev = key
			n++
			return violation == nil
		}); err != nil {
			return err
		}
		if violation == nil && n != want {
			violation = fmt.Errorf("index: tree holds %d keys, shadows hold %d", n, want)
		}
		return nil
	})
	if err != nil {
		return err
	}
	return violation
}

var errMismatch = errors.New("index: result disagrees with the worker's shadow set")
