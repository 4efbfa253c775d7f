// Package ignorelit plants a lint:ignore directive inside a composite
// literal: the directive machinery must neither panic nor let a comment
// buried in data suppress findings elsewhere in the file.
package ignorelit

import (
	"rococotm/internal/mem"
	"rococotm/internal/tm"
)

var table = []uint64{
	1,
	//lint:ignore tmlint/aborterr directive parked inside a composite literal
	2,
}

func peek(m tm.TM, a mem.Addr) (mem.Word, error) {
	var v mem.Word
	err := tm.Run(m, 0, func(x tm.Txn) error {
		v, _ = x.Read(a)
		return nil
	})
	return v, err
}
