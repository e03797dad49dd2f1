def entry(mu, nu):
    if not (mu[0] >= mu[1] >= mu[2] >= mu[3] >= mu[4] >= mu[5] >= 0
            and nu[0] >= nu[1] >= nu[2] >= nu[3] >= nu[4] >= nu[5] >= 0):
        return None
    a1 = mu[0]
    a3 = a1 + mu[1]
    a6 = a3 + mu[2]
    a10 = a6 + mu[3]
    a15 = a10 + mu[4]
    a21 = a15 + mu[5]
    a22 = a21 + nu[0]
    a23 = a22 + nu[1]
    a24 = a23 + nu[2]
    a25 = a24 + nu[3]
    a26 = a25 + nu[4]
    a27 = a26 + nu[5]
    b0 = a22 + a10 + a24 - a15 - a23
    b1 = a15 + a24 - a22
    b2 = a23 + a15 - a21
    b3 = a6 + a23 - a10
    b4 = a22 + a10 - a15
    b5 = a23 + a15 - a22
    b6 = a15 + a22 - a21
    def search(lam, a1=a1, a3=a3, a6=a6, a10=a10, a15=a15, a21=a21, a22=a22, a23=a23, a24=a24, a25=a25, a26=a26, a27=a27, b0=b0, b1=b1, b2=b2, b3=b3, b4=b4, b5=b5, b6=b6):
        if not (lam[0] >= lam[1] >= lam[2] >= lam[3] >= lam[4] >= lam[5] >= 0
                and lam[0] + lam[1] + lam[2] + lam[3] + lam[4] + lam[5] == a27):
            return
        a2 = lam[0]
        a5 = a2 + lam[1]
        a9 = a5 + lam[2]
        a14 = a9 + lam[3]
        a20 = a14 + lam[4]
        lo = a26 + a14 - a20
        t = a25 + a20 - a26
        if t > lo: lo = t
        hi = a26 + a20 - a27
        for a19 in range(lo, hi + 1):
            lo = a24 + a19 - a25
            t = a9 + a25 - a14
            if t > lo: lo = t
            hi = a25 + a19 - a26
            for a18 in range(lo, hi + 1):
                lo = a23 + a18 - a24
                t = b0
                if t > lo: lo = t
                t = b1
                if t > lo: lo = t
                t = b3
                if t > lo: lo = t
                hi = a24 + a18 - a25
                t = b2
                if t < hi: hi = t
                for a17 in range(lo, hi + 1):
                    lo = b4
                    t = b5
                    if t > lo: lo = t
                    t = a22 + a17 - a23
                    if t > lo: lo = t
                    hi = a23 + a17 - a24
                    t = b6
                    if t < hi: hi = t
                    for a16 in range(lo, hi + 1):
                        lo = a19 + a9 - a14
                        t = a18 + a14 - a19
                        if t > lo: lo = t
                        hi = a18 + a19 - a25
                        t = a19 + a14 - a20
                        if t < hi: hi = t
                        for a13 in range(lo, hi + 1):
                            lo = a17 + a13 - a18
                            t = a16 + a6 + a18 - a10 - a17
                            if t > lo: lo = t
                            t = a10 + a18 - a16
                            if t > lo: lo = t
                            t = a5 + a18 - a9
                            if t > lo: lo = t
                            t = a3 + a17 - a6
                            if t > lo: lo = t
                            hi = a17 + a18 - a24
                            t = a18 + a13 - a19
                            if t < hi: hi = t
                            t = a17 + a10 - a15
                            if t < hi: hi = t
                            for a12 in range(lo, hi + 1):
                                lo = a16 + a6 - a10
                                t = a17 + a10 - a16
                                if t > lo: lo = t
                                t = a16 + a12 - a17
                                if t > lo: lo = t
                                hi = a16 + a17 - a23
                                t = a17 + a12 - a18
                                if t < hi: hi = t
                                t = a10 + a16 - a15
                                if t < hi: hi = t
                                for a11 in range(lo, hi + 1):
                                    lo = a13 + a5 - a9
                                    t = a12 + a9 - a13
                                    if t > lo: lo = t
                                    t = a11 + a3 + a13 - a6 - a12
                                    if t > lo: lo = t
                                    t = a6 + a13 - a11
                                    if t > lo: lo = t
                                    t = a1 + a12 - a3
                                    if t > lo: lo = t
                                    t = a1 + a9 - a2
                                    if t > lo: lo = t
                                    t = a3 + a2 + a9 - a1 - a5
                                    if t > lo: lo = t
                                    t = a5 + a6 - a3
                                    if t > lo: lo = t
                                    hi = a12 + a13 - a18
                                    t = a13 + a9 - a14
                                    if t < hi: hi = t
                                    t = a12 + a6 - a10
                                    if t < hi: hi = t
                                    t = a5 + a1
                                    if t < hi: hi = t
                                    for a8 in range(lo, hi + 1):
                                        lo = a11 + a3 - a6
                                        t = a12 + a6 - a11
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
                                        hi = a11 + a12 - a17
                                        t = a12 + a8 - a13
                                        if t < hi: hi = t
                                        t = a6 + a11 - a10
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
                                                yield (0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24, a25, a26, a27)
    return search
