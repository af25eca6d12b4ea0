module mobirep/benchmark

go 1.22

require mobirep v0.0.0

replace mobirep => ../
