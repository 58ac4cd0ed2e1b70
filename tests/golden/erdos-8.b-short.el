shape 8 1
7 1
