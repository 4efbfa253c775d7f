// Package user imports base.
package user

import "rococotm/internal/lint/testdata/loader/xtestdep/base"

// Make returns a base.T.
func Make() base.T { return base.New() }
