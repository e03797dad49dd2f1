def entry(mu, nu):
    if not (mu[0] >= mu[1] >= mu[2] >= mu[3] >= 0
            and nu[0] >= nu[1] >= nu[2] >= nu[3] >= 0):
        return None
    a1 = mu[0]
    a3 = a1 + mu[1]
    a6 = a3 + mu[2]
    a10 = a6 + mu[3]
    a11 = a10 + nu[0]
    a12 = a11 + nu[1]
    a13 = a12 + nu[2]
    a14 = a13 + nu[3]
    b0 = a11 + a3 + a13 - a6 - a12
    b1 = a6 + a13 - a11
    b2 = a12 + a6 - a10
    b3 = a1 + a12 - a3
    b4 = a11 + a3 - a6
    b5 = a12 + a6 - a11
    b6 = a6 + a11 - a10
    def search(lam, a1=a1, a3=a3, a6=a6, a10=a10, a11=a11, a12=a12, a13=a13, a14=a14, b0=b0, b1=b1, b2=b2, b3=b3, b4=b4, b5=b5, b6=b6):
        if not (lam[0] >= lam[1] >= lam[2] >= lam[3] >= 0
                and lam[0] + lam[1] + lam[2] + lam[3] == a14):
            return
        a2 = lam[0]
        a5 = a2 + lam[1]
        a9 = a5 + lam[2]
        lo = a13 + a5 - a9
        t = a12 + a9 - a13
        if t > lo: lo = t
        t = b0
        if t > lo: lo = t
        t = b1
        if t > lo: lo = t
        t = b3
        if t > lo: lo = t
        t = a1 + a9 - a2
        if t > lo: lo = t
        t = a3 + a2 + a9 - a1 - a5
        if t > lo: lo = t
        t = a5 + a6 - a3
        if t > lo: lo = t
        hi = a13 + a9 - a14
        t = b2
        if t < hi: hi = t
        t = a5 + a1
        if t < hi: hi = t
        for a8 in range(lo, hi + 1):
            lo = b4
            t = b5
            if t > lo: lo = t
            t = a11 + a8 - a12
            if t > lo: lo = t
            t = a2 + a12 - a5
            if t > lo: lo = t
            t = a8 + a2 + a6 - a5 - a3
            if t > lo: lo = t
            t = a5 + a1 + a12 - a2 - a8
            if t > lo: lo = t
            t = a5 + a1 + a6 - a2 - a3
            if t > lo: lo = t
            t = a8 + a3 - a1 - a2
            if t > lo: lo = t
            t = a3 + a9 - a5
            if t > lo: lo = t
            t = a3 + a2 + a12 - a1 - a8
            if t > lo: lo = t
            t = a2 + a6 - a1
            if t > lo: lo = t
            hi = a12 + a8 - a13
            t = b6
            if t < hi: hi = t
            t = a3 + a2
            if t < hi: hi = t
            t = a3 + a8 + a5 - a1 - a9
            if t < hi: hi = t
            t = a8 + a1 + a2 - a5
            if t < hi: hi = t
            for a7 in range(lo, hi + 1):
                lo = a7 + a1 - a3
                t = a8 + a2 - a5
                if t > lo: lo = t
                t = a5 + a1 - a2
                if t > lo: lo = t
                t = a8 + a3 - a7
                if t > lo: lo = t
                t = a3 + a2 - a1
                if t > lo: lo = t
                t = a7 + a5 - a8
                if t > lo: lo = t
                hi = a1 + a2
                t = a7 + a8 - a12
                if t < hi: hi = t
                t = a8 + a5 - a9
                if t < hi: hi = t
                t = a3 + a7 - a6
                if t < hi: hi = t
                for a4 in range(lo, hi + 1):
                    yield (0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14)
    return search
