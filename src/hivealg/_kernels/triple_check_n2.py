def triple_ok(lam, mu, nu):
    return (lam[0] >= lam[1] >= 0
            and mu[0] >= mu[1] >= 0
            and nu[0] >= nu[1] >= 0
            and lam[0] + lam[1] == mu[0] + mu[1] + nu[0] + nu[1])
