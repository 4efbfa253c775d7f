// Package bitmat provides dense boolean matrices and vectors backed by
// 64-bit words. They model the 2-D register arrays the ROCoCo manager keeps
// on the FPGA: every row is a machine word (or a small run of words), so the
// row-parallel operations of the hardware — OR-reduction across selected
// rows, row-wise AND-nonzero tests, single-cycle row/column insertion — map
// to a handful of word operations per row.
//
// The package is used two ways:
//
//   - internal/core builds its generic (W > 64) reachability window on it;
//   - the tests use the Warshall transitive closure here as an oracle
//     against the incremental closure the ROCoCo algorithm maintains.
package bitmat

import (
	"math/bits"
	"strings"
)

// wordBits is the number of bits per backing word.
const wordBits = 64

// wordsFor returns the number of words needed for n bits.
func wordsFor(n int) int { return (n + wordBits - 1) / wordBits }

// Vec is a fixed-length bit vector. The zero value is unusable; construct
// with NewVec. Bits beyond the length are kept zero by every operation.
type Vec struct {
	n int
	w []uint64
}

// NewVec returns an all-zero vector of n bits. n must be non-negative.
func NewVec(n int) Vec {
	if n < 0 {
		panic("bitmat: negative vector length")
	}
	return Vec{n: n, w: make([]uint64, wordsFor(n))}
}

// Len returns the number of bits in the vector.
func (v Vec) Len() int { return v.n }

// Get reports whether bit i is set.
func (v Vec) Get(i int) bool {
	v.check(i)
	return v.w[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Set sets bit i to b.
func (v Vec) Set(i int, b bool) {
	v.check(i)
	if b {
		v.w[i/wordBits] |= 1 << uint(i%wordBits)
	} else {
		v.w[i/wordBits] &^= 1 << uint(i%wordBits)
	}
}

// check and sameLen panic with constant messages: both inline into every
// caller, and a formatted message would box its operands at each call site.
func (v Vec) check(i int) {
	if i < 0 || i >= v.n {
		panic("bitmat: index out of range")
	}
}

// Clone returns a deep copy of v.
func (v Vec) Clone() Vec {
	c := Vec{n: v.n, w: make([]uint64, len(v.w))}
	copy(c.w, v.w)
	return c
}

// Clear zeroes every bit.
func (v Vec) Clear() {
	for i := range v.w {
		v.w[i] = 0
	}
}

// Or sets v = v | u. Lengths must match.
func (v Vec) Or(u Vec) {
	v.sameLen(u)
	for i := range v.w {
		v.w[i] |= u.w[i]
	}
}

// And sets v = v & u. Lengths must match.
func (v Vec) And(u Vec) {
	v.sameLen(u)
	for i := range v.w {
		v.w[i] &= u.w[i]
	}
}

// AndNot sets v = v &^ u. Lengths must match.
func (v Vec) AndNot(u Vec) {
	v.sameLen(u)
	for i := range v.w {
		v.w[i] &^= u.w[i]
	}
}

// Intersects reports whether v & u has any set bit.
func (v Vec) Intersects(u Vec) bool {
	v.sameLen(u)
	for i := range v.w {
		if v.w[i]&u.w[i] != 0 {
			return true
		}
	}
	return false
}

// Any reports whether any bit is set.
func (v Vec) Any() bool {
	for _, w := range v.w {
		if w != 0 {
			return true
		}
	}
	return false
}

// OnesCount returns the number of set bits.
func (v Vec) OnesCount() int {
	n := 0
	for _, w := range v.w {
		n += bits.OnesCount64(w)
	}
	return n
}

// Equal reports whether v and u have identical length and bits.
func (v Vec) Equal(u Vec) bool {
	if v.n != u.n {
		return false
	}
	for i := range v.w {
		if v.w[i] != u.w[i] {
			return false
		}
	}
	return true
}

// ForEach calls fn for every set bit index, in ascending order.
func (v Vec) ForEach(fn func(i int)) {
	for wi, w := range v.w {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// String renders the vector as a bit string, bit 0 first.
func (v Vec) String() string {
	var sb strings.Builder
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

func (v Vec) sameLen(u Vec) {
	if v.n != u.n {
		panic("bitmat: vector length mismatch")
	}
}

// Mat is a square boolean matrix of order n. Row i is a Vec over the
// columns; m.Get(i, j) is the bit in row i, column j. In reachability use
// (internal/core), bit (i, j) means "transaction i can reach transaction j".
type Mat struct {
	n    int
	rows []Vec
}

// NewMat returns an all-zero n×n matrix.
func NewMat(n int) *Mat {
	if n < 0 {
		panic("bitmat: negative matrix order")
	}
	m := &Mat{n: n, rows: make([]Vec, n)}
	for i := range m.rows {
		m.rows[i] = NewVec(n)
	}
	return m
}

// Order returns n for an n×n matrix.
func (m *Mat) Order() int { return m.n }

// Get reports the bit at row i, column j.
func (m *Mat) Get(i, j int) bool { return m.rows[i].Get(j) }

// Set sets the bit at row i, column j.
func (m *Mat) Set(i, j int, b bool) { m.rows[i].Set(j, b) }

// Row returns row i. The returned Vec aliases the matrix storage: mutating
// it mutates the matrix.
func (m *Mat) Row(i int) Vec { return m.rows[i] }

// Col extracts column j as a fresh Vec.
func (m *Mat) Col(j int) Vec {
	c := NewVec(m.n)
	for i := 0; i < m.n; i++ {
		if m.rows[i].Get(j) {
			c.Set(i, true)
		}
	}
	return c
}

// SetCol overwrites column j from v.
func (m *Mat) SetCol(j int, v Vec) {
	if v.Len() != m.n {
		panic("bitmat: column length mismatch")
	}
	for i := 0; i < m.n; i++ {
		m.rows[i].Set(j, v.Get(i))
	}
}

// Clone returns a deep copy of m.
func (m *Mat) Clone() *Mat {
	c := NewMat(m.n)
	for i := range m.rows {
		copy(c.rows[i].w, m.rows[i].w)
	}
	return c
}

// Equal reports whether m and o have the same order and bits.
func (m *Mat) Equal(o *Mat) bool {
	if m.n != o.n {
		return false
	}
	for i := range m.rows {
		if !m.rows[i].Equal(o.rows[i]) {
			return false
		}
	}
	return true
}

// Transpose returns a new matrix mᵀ.
func (m *Mat) Transpose() *Mat {
	t := NewMat(m.n)
	for i := 0; i < m.n; i++ {
		m.rows[i].ForEach(func(j int) { t.rows[j].Set(i, true) })
	}
	return t
}

// MulVec returns m·v over boolean algebra: out[i] = ⋁_j m[i][j] ∧ v[j].
func (m *Mat) MulVec(v Vec) Vec {
	if v.Len() != m.n {
		panic("bitmat: MulVec length mismatch")
	}
	out := NewVec(m.n)
	for i := 0; i < m.n; i++ {
		if m.rows[i].Intersects(v) {
			out.Set(i, true)
		}
	}
	return out
}

// TransposeMulVec returns mᵀ·v without materializing the transpose:
// out[i] = ⋁_j m[j][i] ∧ v[j], i.e. the OR of rows j selected by v.
func (m *Mat) TransposeMulVec(v Vec) Vec {
	if v.Len() != m.n {
		panic("bitmat: TransposeMulVec length mismatch")
	}
	out := NewVec(m.n)
	v.ForEach(func(j int) { out.Or(m.rows[j]) })
	return out
}

// Warshall computes the transitive closure of m in place using the
// classical O(n³/64) algorithm: for each k, every row i with m[i][k] set
// absorbs row k. It tolerates cyclic inputs. It is the oracle the ROCoCo
// incremental closure is tested against.
func (m *Mat) Warshall() {
	for k := 0; k < m.n; k++ {
		rk := m.rows[k]
		for i := 0; i < m.n; i++ {
			if i != k && m.rows[i].Get(k) {
				m.rows[i].Or(rk)
			}
		}
	}
}

// HasCycle reports whether the directed graph described by m (ignoring the
// diagonal) contains a cycle, using an iterative three-color DFS.
func (m *Mat) HasCycle() bool {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]byte, m.n)
	type frame struct{ v, next int }
	var stack []frame
	for s := 0; s < m.n; s++ {
		if color[s] != white {
			continue
		}
		stack = append(stack[:0], frame{s, 0})
		color[s] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			advanced := false
			for j := f.next; j < m.n; j++ {
				if j == f.v || !m.rows[f.v].Get(j) {
					continue
				}
				switch color[j] {
				case gray:
					return true
				case white:
					f.next = j + 1
					color[j] = gray
					stack = append(stack, frame{j, 0})
					advanced = true
				}
				if advanced {
					break
				}
			}
			if !advanced {
				color[f.v] = black
				stack = stack[:len(stack)-1]
			}
		}
	}
	return false
}

// TopoOrder returns a topological order of the DAG in m (diagonal ignored),
// or ok=false if m is cyclic. Kahn's algorithm; among ready vertices the
// lowest index is picked, so the order is deterministic.
func (m *Mat) TopoOrder() (order []int, ok bool) {
	indeg := make([]int, m.n)
	for i := 0; i < m.n; i++ {
		m.rows[i].ForEach(func(j int) {
			if j != i {
				indeg[j]++
			}
		})
	}
	ready := make([]int, 0, m.n)
	for v := 0; v < m.n; v++ {
		if indeg[v] == 0 {
			ready = append(ready, v)
		}
	}
	order = make([]int, 0, m.n)
	for len(ready) > 0 {
		// Pop the smallest ready vertex for determinism.
		min := 0
		for i := 1; i < len(ready); i++ {
			if ready[i] < ready[min] {
				min = i
			}
		}
		v := ready[min]
		ready = append(ready[:min], ready[min+1:]...)
		order = append(order, v)
		m.rows[v].ForEach(func(j int) {
			if j == v {
				return
			}
			indeg[j]--
			if indeg[j] == 0 {
				ready = append(ready, j)
			}
		})
	}
	return order, len(order) == m.n
}

// String renders the matrix one row per line.
func (m *Mat) String() string {
	var sb strings.Builder
	for i := 0; i < m.n; i++ {
		sb.WriteString(m.rows[i].String())
		if i != m.n-1 {
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
