module tunio/bench

go 1.22

require tunio v0.0.0

replace tunio => ../
