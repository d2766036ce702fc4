module kaskade/bench

go 1.23

require kaskade v0.0.0

replace kaskade => ../
