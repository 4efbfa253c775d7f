// Package bad is a fixture for the tmlint driver tests: it carries one
// known aborterr violation (a Txn.Read error dropped inside an atomic
// block, so the retry loop never sees the abort).
package bad

import (
	"rococotm/internal/mem"
	"rococotm/internal/tm"
)

func peek(m tm.TM, a mem.Addr) (mem.Word, error) {
	var v mem.Word
	err := tm.Run(m, 0, func(x tm.Txn) error {
		v, _ = x.Read(a)
		return nil
	})
	return v, err
}
