module flowrankbench

go 1.24

require flowrank v0.0.0

replace flowrank => ../
