def triple_ok(lam, mu, nu):
    return (lam[0] >= lam[1] >= lam[2] >= lam[3] >= 0
            and mu[0] >= mu[1] >= mu[2] >= mu[3] >= 0
            and nu[0] >= nu[1] >= nu[2] >= nu[3] >= 0
            and lam[0] + lam[1] + lam[2] + lam[3] == mu[0] + mu[1] + mu[2] + mu[3] + nu[0] + nu[1] + nu[2] + nu[3])
