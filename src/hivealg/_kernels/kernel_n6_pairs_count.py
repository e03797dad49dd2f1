def entry(mu, nu):
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
    total = 0
    lo = a22 + a10 - a15
    t = a23 + a15 - a22
    if t > lo: lo = t
    hi = a15 + a22 - a21
    for a16 in range(lo, hi + 1):
        lo = a24 + a16 - a23
        t = a6 + a23 - a10
        if t > lo: lo = t
        hi = a16 + a23 - a22
        for a17 in range(lo, hi + 1):
            lo = a16 + a6 - a10
            t = a17 + a10 - a16
            if t > lo: lo = t
            hi = a16 + a17 - a23
            t = a10 + a16 - a15
            if t < hi: hi = t
            for a11 in range(lo, hi + 1):
                lo = a25 + a17 - a24
                hi = a17 + a24 - a23
                for a18 in range(lo, hi + 1):
                    lo = a18 + a11 - a17
                    t = a3 + a17 - a6
                    if t > lo: lo = t
                    hi = a17 + a18 - a24
                    t = a11 + a17 - a16
                    if t < hi: hi = t
                    for a12 in range(lo, hi + 1):
                        lo = a11 + a3 - a6
                        t = a12 + a6 - a11
                        if t > lo: lo = t
                        hi = a11 + a12 - a17
                        t = a6 + a11 - a10
                        if t < hi: hi = t
                        for a7 in range(lo, hi + 1):
                            lo = a26 + a18 - a25
                            hi = a18 + a25 - a24
                            t = a26
                            if t < hi: hi = t
                            for a19 in range(lo, hi + 1):
                                lo = a19 + a12 - a18
                                hi = a18 + a19 - a25
                                t = a12 + a18 - a17
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
                                            lo = a27 + a19 - a26
                                            hi = a27
                                            t = a19 + a26 - a25
                                            if t < hi: hi = t
                                            for a20 in range(lo, hi + 1):
                                                lo = a20 + a13 - a19
                                                hi = a19 + a20 - a26
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
