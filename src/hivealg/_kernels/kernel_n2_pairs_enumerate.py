def entry(mu, nu):
    a1 = mu[0]
    a3 = a1 + mu[1]
    a4 = a3 + nu[0]
    a5 = a4 + nu[1]
    lo = a4 - a1
    t = a5 + a1 - a4
    if t > lo: lo = t
    hi = a1 + a4 - a3
    for a2 in range(lo, hi + 1):
        yield (0, a1, a2, a3, a4, a5)
