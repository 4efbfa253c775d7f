// Package base is imported both by user and by its own external test,
// which also imports user.
package base

// T is the type both import paths must agree on.
type T struct{ n int }

// New returns a T.
func New() T { return T{n: 1} }
