def entry(mu, nu):
    if not (mu[0] >= mu[1] >= mu[2] >= 0
            and nu[0] >= nu[1] >= nu[2] >= 0):
        return None
    a1 = mu[0]
    a3 = a1 + mu[1]
    a6 = a3 + mu[2]
    a7 = a6 + nu[0]
    a8 = a7 + nu[1]
    a9 = a8 + nu[2]
    b0 = a7 + a1 - a3
    b1 = a8 + a3 - a7
    b2 = a3 + a7 - a6
    def search(lam, a1=a1, a3=a3, a6=a6, a7=a7, a8=a8, a9=a9, b0=b0, b1=b1, b2=b2):
        if not (lam[0] >= lam[1] >= lam[2] >= 0
                and lam[0] + lam[1] + lam[2] == a9):
            return -1
        a2 = lam[0]
        a5 = a2 + lam[1]
        total = 0
        lo = b0
        t = a8 + a2 - a5
        if t > lo: lo = t
        t = a5 + a1 - a2
        if t > lo: lo = t
        t = b1
        if t > lo: lo = t
        t = a3 + a2 - a1
        if t > lo: lo = t
        t = a7 + a5 - a8
        if t > lo: lo = t
        hi = a1 + a2
        t = a8 + a5 - a9
        if t < hi: hi = t
        t = b2
        if t < hi: hi = t
        if hi >= lo: total += hi - lo + 1
        return total
    return search
