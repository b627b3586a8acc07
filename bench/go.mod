module fuzzyjoin/bench

go 1.22

require fuzzyjoin v0.0.0

replace fuzzyjoin => ../
