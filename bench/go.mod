module hashstash/bench

go 1.24

require hashstash v0.0.0

replace hashstash => ../
