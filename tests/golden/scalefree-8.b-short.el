shape 8 3
4 1
6 2
7 3
