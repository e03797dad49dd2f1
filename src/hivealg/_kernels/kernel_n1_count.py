def entry(lam, mu, nu):
    if not (lam[0] >= 0
            and mu[0] >= 0
            and nu[0] >= 0
            and lam[0] == mu[0] + nu[0]):
        return -1
    a1 = mu[0]
    a2 = a1 + nu[0]
    total = 0
    total += 1
    return total
