module smartchaindb/benchmark

go 1.24

require smartchaindb v0.0.0

replace smartchaindb => ../
