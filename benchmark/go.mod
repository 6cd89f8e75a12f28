module idlog/benchmark

go 1.22

require idlog v0.0.0

replace idlog => ../
