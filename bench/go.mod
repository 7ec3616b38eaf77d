module ixplens/bench

go 1.22

require ixplens v0.0.0

replace ixplens => ../
