module rococotm/benchmark

go 1.22

require rococotm v0.0.0

replace rococotm => ../
