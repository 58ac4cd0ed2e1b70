shape 8 4
4 1
6 2
7 3
8 4
