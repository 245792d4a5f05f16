module hipec/benchmark

go 1.22

require hipec v0.0.0

replace hipec => ../
