module robustdb/bench

go 1.22

require robustdb v0.0.0

replace robustdb => ../
