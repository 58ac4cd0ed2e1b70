shape 50 1
1 1
