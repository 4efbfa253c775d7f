package mem

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestNewHeapBounds(t *testing.T) {
	for _, n := range []int{-1, 0, 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHeap(%d) did not panic", n)
				}
			}()
			NewHeap(n)
		}()
	}
	h := NewHeap(2)
	if h.Cap() != 2 {
		t.Fatalf("Cap = %d", h.Cap())
	}
}

func TestLoadStore(t *testing.T) {
	h := NewHeap(16)
	h.Store(3, 42)
	if got := h.Load(3); got != 42 {
		t.Fatalf("Load = %d", got)
	}
	if got := h.Load(4); got != 0 {
		t.Fatalf("fresh word = %d", got)
	}
}

func TestAllocNeverReturnsNil(t *testing.T) {
	h := NewHeap(64)
	for i := 0; i < 10; i++ {
		a, err := h.Alloc(4)
		if err != nil {
			t.Fatal(err)
		}
		if a == Nil {
			t.Fatal("Alloc returned the nil address")
		}
	}
}

func TestAllocExhaustion(t *testing.T) {
	h := NewHeap(10)
	if _, err := h.Alloc(9); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Alloc(1); err == nil {
		t.Fatal("over-allocation succeeded")
	}
	if _, err := h.Alloc(0); err == nil {
		t.Fatal("Alloc(0) succeeded")
	}
	if _, err := h.Alloc(-3); err == nil {
		t.Fatal("Alloc(-3) succeeded")
	}
}

func TestMustAllocPanicsOnExhaustion(t *testing.T) {
	h := NewHeap(4)
	defer func() {
		if recover() == nil {
			t.Fatal("MustAlloc did not panic on exhaustion")
		}
	}()
	h.MustAlloc(100)
}

func TestConcurrentAllocDisjoint(t *testing.T) {
	h := NewHeap(1 << 16)
	const workers = 8
	const per = 100
	var wg sync.WaitGroup
	got := make([][]Addr, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				a, err := h.Alloc(3)
				if err != nil {
					t.Error(err)
					return
				}
				got[w] = append(got[w], a)
			}
		}(w)
	}
	wg.Wait()
	seen := map[Addr]bool{}
	for _, as := range got {
		for _, a := range as {
			for off := Addr(0); off < 3; off++ {
				if seen[a+off] {
					t.Fatalf("overlapping allocation at %d", a+off)
				}
				seen[a+off] = true
			}
		}
	}
}

func TestSnapshot(t *testing.T) {
	h := NewHeap(16)
	for i := Addr(0); i < 5; i++ {
		h.Store(i, Word(i*i))
	}
	s := h.Snapshot(1, 3)
	if len(s) != 3 || s[0] != 1 || s[1] != 4 || s[2] != 9 {
		t.Fatalf("Snapshot = %v", s)
	}
}

func TestLineOf(t *testing.T) {
	f := func(a uint32) bool {
		addr := Addr(a)
		return LineOf(addr) == uint64(a)/8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if LineOf(0) != 0 || LineOf(7) != 0 || LineOf(8) != 1 {
		t.Fatal("line boundaries wrong")
	}
}
