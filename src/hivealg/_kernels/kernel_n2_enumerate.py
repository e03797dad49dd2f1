def entry(mu, nu):
    if not (mu[0] >= mu[1] >= 0
            and nu[0] >= nu[1] >= 0):
        return None
    a1 = mu[0]
    a3 = a1 + mu[1]
    a4 = a3 + nu[0]
    a5 = a4 + nu[1]
    def search(lam, a1=a1, a3=a3, a4=a4, a5=a5):
        if not (lam[0] >= lam[1] >= 0
                and lam[0] + lam[1] == a5):
            return
        a2 = lam[0]
        if a1 + a2 - a4 < 0:
            return
        if a4 + a2 - a5 - a1 < 0:
            return
        if a1 + a4 - a3 - a2 < 0:
            return
        yield (0, a1, a2, a3, a4, a5)
    return search
