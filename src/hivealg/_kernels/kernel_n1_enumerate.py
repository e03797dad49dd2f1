def entry(lam, mu, nu):
    a1 = mu[0]
    a2 = a1 + nu[0]
    yield (0, a1, a2)
