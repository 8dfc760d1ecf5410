module ipusparse/benchmark

go 1.22

require ipusparse v0.0.0

replace ipusparse => ../
