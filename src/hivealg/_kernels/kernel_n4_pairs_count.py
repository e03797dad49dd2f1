def entry(mu, nu):
    a1 = mu[0]
    a3 = a1 + mu[1]
    a6 = a3 + mu[2]
    a10 = a6 + mu[3]
    a11 = a10 + nu[0]
    a12 = a11 + nu[1]
    a13 = a12 + nu[2]
    a14 = a13 + nu[3]
    total = 0
    lo = a11 + a3 - a6
    t = a12 + a6 - a11
    if t > lo: lo = t
    hi = a6 + a11 - a10
    for a7 in range(lo, hi + 1):
        lo = a13 + a7 - a12
        t = a1 + a12 - a3
        if t > lo: lo = t
        hi = a7 + a12 - a11
        t = a13
        if t < hi: hi = t
        for a8 in range(lo, hi + 1):
            lo = a7 + a1 - a3
            t = a8 + a3 - a7
            if t > lo: lo = t
            t = a3 - a1
            if t > lo: lo = t
            t = a1
            if t > lo: lo = t
            hi = a7 + a8 - a12
            t = a3 + a7 - a6
            if t < hi: hi = t
            for a4 in range(lo, hi + 1):
                lo = a14 + a8 - a13
                hi = a14
                t = a8 + a13 - a12
                if t < hi: hi = t
                for a9 in range(lo, hi + 1):
                    lo = a9 + a4 - a8
                    t = a8 - a1
                    if t > lo: lo = t
                    hi = a8 + a9 - a13
                    t = a4 + a8 - a7
                    if t < hi: hi = t
                    for a5 in range(lo, hi + 1):
                        lo = a4 - a1
                        t = a5 + a1 - a4
                        if t > lo: lo = t
                        hi = a4 + a5 - a8
                        t = a1 + a4 - a3
                        if t < hi: hi = t
                        if hi >= lo: total += hi - lo + 1
    return total
