package base

// N exposes T's field to the external test package.
func N(t T) int { return t.n }
