def entry(mu, nu):
    a1 = mu[0]
    a2 = a1 + nu[0]
    if a2 < 0:
        return 0
    total = 0
    total += 1
    return total
