def entry(lam, mu, nu):
    a1 = mu[0]
    a2 = a1 + nu[0]
    total = 0
    total += 1
    return total
