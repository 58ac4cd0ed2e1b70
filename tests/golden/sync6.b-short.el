shape 6 2
1 1
2 2
