shape 8 2
7 1
8 2
