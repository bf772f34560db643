"""Completed squares of chain forms in Fraction arithmetic, used only by the tests.

A chain exponent E(x) = sum_i diag[i] x_i^2 + sum_i off[i] x_i x_(i+1) +
lin.x + const, with rational entries, is written as
cstar + sum_i d_i (x_i + u_i x_(i-1) + t_i)^2 by dividing through by each
pivot, last coordinate first.  qchar.quadform completes integer chains
fraction-free instead; the two must agree on every level.  Both routes'
chains are kept here in their Fraction form too (the character numerator
with its Euler-product denominator, and the trace route's theta chain), as
the oracles of the integer chains qchar.affine builds.  kappa_sum writes the
tests' kappa-form sums c*kappa(x) + lin.x + const as LatticeSums.
"""

from fractions import Fraction
from math import floor, isqrt, lcm

from qchar.affine import PartitionData, _character_parts, _trace_parts, partitions
from qchar.qseries import ProductSpec
from qchar.quadform import LatticeSum


def complete_squares(diag, off, lin, const):
    """Peel squares off the last coordinate until none remain.

    Returns (d, u, t, cstar, grid): per-level data with
    E(x) = cstar + sum_i d_i (x_i + u_i x_(i-1) + t_i)^2 (u_0 = 0), and the
    grid denominator, the lcm of the chain's entry denominators, read off
    before elimination rewrites them.  Raises if any pivot fails to be
    positive.
    """
    l = len(lin)
    a = [Fraction(v) for v in diag]
    b = [Fraction(v) for v in off]
    lin = [Fraction(v) for v in lin]
    c = Fraction(const)
    grid = lcm(*(v.denominator for v in (*a, *b, *lin, c)))
    d = [Fraction(0)] * l
    u = [Fraction(0)] * l
    t = [Fraction(0)] * l
    for i in reversed(range(l)):
        di = a[i]
        if di <= 0:
            raise ValueError("indefinite exponent function")
        ti = lin[i] / (2 * di)
        d[i], t[i] = di, ti
        if i:
            ui = b[i - 1] / (2 * di)
            u[i] = ui
            a[i - 1] -= di * ui * ui
            lin[i - 1] -= 2 * di * ui * ti
        c -= di * ti * ti
    return d, u, t, c, grid


def form_matches(form, squares) -> bool:
    """Whether a completed _ScaledForm holds the oracle's squares.

    On the oracle's grid, with scale = sigma*grid: K_i W_i^2 = scale*d_i,
    w_prev_i / W_i = u_i and w0_i / W_i = t_i with W_i > 0, and
    base = scale*cstar.
    """
    d, u, t, cstar, grid = squares
    scale = form.sigma * grid
    levels = zip(form.K, form.W, form.w_prev, form.w0, d, u, t)
    return (
        form.grid == grid
        and form.base == scale * cstar
        and len(form.K) == len(d)
        and all(
            w > 0 and k * w * w == scale * di and Fraction(wp, w) == ui and Fraction(w0, w) == ti
            for k, w, wp, w0, di, ui, ti in levels
        )
    )


def route_chains(n_max):
    """Every route chain with n <= n_max, both routes and every k, beside its
    Fraction chain: (label, the LatticeSum qchar.affine builds, (diag, off, lin, const))."""
    for n in range(1, n_max + 1):
        for parts in partitions(n):
            data = PartitionData.from_parts(parts)
            for k in range(n):
                rational = rational_chain(character_data(parts, k)[0])
                yield ("character", parts, k), _character_parts(data, k)[0], rational
                yield ("trace", parts, k), _trace_parts(data, k)[0], trace_chain(parts, k)


def rational_chain(s):
    """The Fraction chain (diag, off, lin, const) a LatticeSum denotes: its
    integer entries over its denominator."""
    parts = tuple([Fraction(v, s.denom) for v in part] for part in (s.diag, s.off, s.lin))
    return parts + (Fraction(s.const, s.denom),)


def chain_min(squares):
    """Least exponent over Z^l, scanning the points within cstar + sum(d_i)/4.

    Rounding each square in turn, level 0 first, reaches such a point, so the
    scan is never empty.  Each level keeps every integer x_i whose square
    fits in the room left, tested exactly.
    """
    d, u, t, cstar, _ = squares
    bound = cstar + sum(d, Fraction(0)) / 4
    best = [None]

    def scan(i, prev, room):
        if i == len(d):
            e = bound - room
            if best[0] is None or e < best[0]:
                best[0] = e
            return
        center = -u[i] * prev - t[i]
        r = room / d[i]
        reach = isqrt(floor(r)) + 1
        for x in range(floor(center) - reach, floor(center) + reach + 2):
            spend = d[i] * (x - center) ** 2
            if spend <= room:
                scan(i + 1, x, room - spend)

    scan(0, 0, bound - cstar)
    return best[0]


def scan_size(squares):
    """An upper bound on the points chain_min scans: the product of its level widths."""
    d, _, _, _, _ = squares
    room = sum(d, Fraction(0)) / 4
    size = 1
    for di in d:
        size *= 2 * isqrt(floor(room / di)) + 4
    return size


def integer_chain(diag, off, lin, const):
    """The chain on the lcm of its denominators: (diag, off, lin, const, denom) in ints."""
    entries = [Fraction(v) for v in (*diag, *off, *lin, const)]
    denom = lcm(*(v.denominator for v in entries))
    ints = [int(v * denom) for v in entries]
    l = len(lin)
    return (
        ints[:l],
        ints[l : l + len(off)],
        ints[l + len(off) : -1],
        ints[-1],
        denom,
    )


def kappa_sum(l, c, lin, const=0, weight=None):
    """The LatticeSum of weight(x) q^(c*kappa(x) + lin.x + const) over Z^l,
    kappa(x) = sum x_i^2 - sum x_i x_(i+1), for rational c, lin and const."""
    c = Fraction(c)
    chain = integer_chain([c] * l, [-c] * max(l - 1, 0), lin, const)
    return LatticeSum(*chain, weight=weight)


def trace_chain(parts, k):
    """The trace route's theta chain in partial sums, in Fraction arithmetic.

    (N/2) sum_i (s_i - s_(i-1))^2 / n_i with s_0 = 0 and s_r = k, a chain in
    s_1..s_(r-1).
    """
    data = PartitionData.from_parts(parts)
    big = data.N
    ps = data.parts
    half = Fraction(big, 2)
    diag = [half / ps[i] + half / ps[i + 1] for i in range(len(ps) - 1)]
    off = [Fraction(-big, p) for p in ps[1:-1]]
    lin = [Fraction(0)] * len(diag)
    if lin:
        lin[-1] = Fraction(-big * k, ps[-1])
    const = half * k * k / ps[-1]
    return diag, off, lin, const


def fundamental_weight(n, k):
    """The coefficients c_1..c_(n-1) of the k-th fundamental weight, by definition.

    c solves C c = e_k for the Cartan matrix C of A_(n-1) (2 on the diagonal,
    -1 beside it), by tridiagonal elimination in Fraction arithmetic; k = 0
    gives the zero vector.
    """
    dim = n - 1
    pivot = [Fraction(2)] * dim
    rhs = [Fraction(int(j == k)) for j in range(1, n)]
    for j in range(1, dim):
        pivot[j] -= 1 / pivot[j - 1]
        rhs[j] += rhs[j - 1] / pivot[j - 1]
    c = [Fraction(0)] * dim
    for j in reversed(range(dim)):
        c[j] = (rhs[j] + (c[j + 1] if j + 1 < dim else 0)) / pivot[j]
    return tuple(c)


def character_data(parts, k):
    """The character route's numerator and denominator, in Fraction arithmetic.

    Writing gamma = kvec + c with c the fundamental-weight coefficients, the
    numerator exponent is (N/2)(gamma|gamma) - sum s_i gamma_i: quadratic
    part N*kappa, linear part N*e_k - s (head entry of s excluded), and
    constant N*kappa(c) - s.c.  The denominator is phi(q^N)^(n-1).
    """
    data = PartitionData.from_parts(parts)
    c = fundamental_weight(data.n, k)
    n, big = data.n, data.N
    dim = n - 1
    tail = data.s[1:]
    lin = tuple(
        Fraction(big * (1 if i == k else 0) - tail[i - 1]) for i in range(1, n)
    )
    kappa_c = sum(v * v for v in c) - sum(a * b for a, b in zip(c, c[1:]))
    const = big * kappa_c - sum(si * ci for si, ci in zip(tail, c))
    numerator = kappa_sum(dim, big, lin, const)
    denominator = ProductSpec(((Fraction(big), dim),))
    return numerator, denominator
