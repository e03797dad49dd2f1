def entry(mu, nu):
    a1 = mu[0]
    a3 = a1 + mu[1]
    a6 = a3 + mu[2]
    a7 = a6 + nu[0]
    a8 = a7 + nu[1]
    a9 = a8 + nu[2]
    lo = a7 + a1 - a3
    t = a8 + a3 - a7
    if t > lo: lo = t
    hi = a3 + a7 - a6
    for a4 in range(lo, hi + 1):
        lo = a9 + a4 - a8
        t = a8 - a1
        if t > lo: lo = t
        hi = a9
        t = a4 + a8 - a7
        if t < hi: hi = t
        for a5 in range(lo, hi + 1):
            lo = a4 - a1
            t = a5 + a1 - a4
            if t > lo: lo = t
            hi = a4 + a5 - a8
            t = a1 + a4 - a3
            if t < hi: hi = t
            for a2 in range(lo, hi + 1):
                yield (0, a1, a2, a3, a4, a5, a6, a7, a8, a9)
