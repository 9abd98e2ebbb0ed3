module athena/bench

go 1.23

require athena v0.0.0

replace athena => ../
