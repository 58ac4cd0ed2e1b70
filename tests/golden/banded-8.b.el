shape 8 2
1 1
7 2
