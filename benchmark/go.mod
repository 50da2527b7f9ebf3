module github.com/actindex/act/benchmark

go 1.22

require github.com/actindex/act v0.0.0

replace github.com/actindex/act => ../
