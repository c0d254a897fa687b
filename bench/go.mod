module goopc/bench

go 1.22

require goopc v0.0.0

replace goopc => ../
