module github.com/stripdb/strip/bench

go 1.22

require github.com/stripdb/strip v0.0.0

replace github.com/stripdb/strip => ../
