# gen model=banded n=8 band=2 fill=0.5 seed=0
n 8
1 3
2 1
2 3
3 1
3 2
4 2
4 5
5 6
6 6
6 7
6 8
7 8
8 7
