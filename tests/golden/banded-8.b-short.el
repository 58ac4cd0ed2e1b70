shape 8 1
1 1
