module graphit/benchmarks

go 1.22

require graphit v0.0.0

replace graphit => ../
