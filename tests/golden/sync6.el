# 6-agent synchronization example
n 6
1 1
2 2
3 1
3 2
3 4
4 3
4 5
4 6
5 4
6 4
