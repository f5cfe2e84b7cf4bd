module dpq/benchmark

go 1.22

require dpq v0.0.0

replace dpq => ../
