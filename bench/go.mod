module swishmem/bench

go 1.22

require swishmem v0.0.0

replace swishmem => ../
