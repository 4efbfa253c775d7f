package base_test

import (
	"rococotm/internal/lint/testdata/loader/xtestdep/base"
	"rococotm/internal/lint/testdata/loader/xtestdep/user"
)

// One T reaches the test through user, which imports base: it must be the
// T of the test-inclusive base the export_test.go helper takes.
var _ = base.N(user.Make())
