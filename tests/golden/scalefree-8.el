# gen model=scalefree n=8 attach=2 seed=0
n 8
1 2
1 3
1 4
1 5
1 6
1 8
2 3
2 4
2 6
2 7
2 8
3 5
5 7
