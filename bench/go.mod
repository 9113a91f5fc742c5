module resilientfusion/bench

go 1.24

require resilientfusion v0.0.0

replace resilientfusion => ../
