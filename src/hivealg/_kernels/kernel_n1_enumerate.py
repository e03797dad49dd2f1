def entry(mu, nu):
    if not (mu[0] >= 0
            and nu[0] >= 0):
        return None
    a1 = mu[0]
    a2 = a1 + nu[0]
    def search(lam, a1=a1, a2=a2):
        if not (lam[0] >= 0
                and lam[0] == a2):
            return
        yield (0, a1, a2)
    return search
