def triple_ok(lam, mu, nu):
    return (lam[0] >= 0
            and mu[0] >= 0
            and nu[0] >= 0
            and lam[0] == mu[0] + nu[0])
