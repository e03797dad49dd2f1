def entry(mu, nu):
    a1 = mu[0]
    a3 = a1 + mu[1]
    a6 = a3 + mu[2]
    a10 = a6 + mu[3]
    a15 = a10 + mu[4]
    a16 = a15 + nu[0]
    a17 = a16 + nu[1]
    a18 = a17 + nu[2]
    a19 = a18 + nu[3]
    a20 = a19 + nu[4]
    total = 0
    lo = a16 + a6 - a10
    t = a17 + a10 - a16
    if t > lo: lo = t
    hi = a10 + a16 - a15
    for a11 in range(lo, hi + 1):
        lo = a18 + a11 - a17
        t = a3 + a17 - a6
        if t > lo: lo = t
        hi = a11 + a17 - a16
        for a12 in range(lo, hi + 1):
            lo = a11 + a3 - a6
            t = a12 + a6 - a11
            if t > lo: lo = t
            hi = a11 + a12 - a17
            t = a6 + a11 - a10
            if t < hi: hi = t
            for a7 in range(lo, hi + 1):
                lo = a19 + a12 - a18
                hi = a12 + a18 - a17
                t = a19
                if t < hi: hi = t
                for a13 in range(lo, hi + 1):
                    lo = a13 + a7 - a12
                    t = a1 + a12 - a3
                    if t > lo: lo = t
                    hi = a12 + a13 - a18
                    t = a7 + a12 - a11
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
                            lo = a20 + a13 - a19
                            hi = a20
                            t = a13 + a19 - a18
                            if t < hi: hi = t
                            for a14 in range(lo, hi + 1):
                                lo = a14 + a8 - a13
                                hi = a13 + a14 - a19
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
