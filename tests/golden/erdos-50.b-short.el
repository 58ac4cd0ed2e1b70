shape 50 0
