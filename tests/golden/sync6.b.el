shape 6 3
1 1
2 2
5 3
