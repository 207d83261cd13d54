module nestedecpt/benchmark

go 1.22

require nestedecpt v0.0.0

replace nestedecpt => ../
