"""Decimal references for the closed forms of the volatility geometry.

Each function works in Decimal under the caller's context, so a test picks
the precision: 60 digits resolve crossings and distances, and an exponent
whose two distances agree to 300 digits needs 400.  Floats enter exactly
(Decimal(float) is exact); nothing here is squared in floats.
"""

from decimal import Decimal


def dec(v):
    return Decimal(float(v))


def image(sigma_vol, rho, z):
    """The half-plane image A z of a state point under (sigma_vol, rho)."""
    sv, rho = dec(sigma_vol), dec(rho)
    rb = (1 - rho * rho).sqrt()
    u, v = dec(z[0]), dec(z[1])
    return (u - rho * v / sv) / rb, v / sv


def state(sigma_vol, rho, Z):
    """The state point of a half-plane image: A^-1 Z."""
    sv, rho = dec(sigma_vol), dec(rho)
    rb = (1 - rho * rho).sqrt()
    return rb * Z[0] + rho * Z[1], sv * Z[1]


def half_plane_distance(P, Q):
    """acosh(1 + |P - Q|^2 / (2 P_w Q_w)) of two Decimal points."""
    (pu, pw), (qu, qw) = P, Q
    w = 1 + ((qu - pu) ** 2 + (qw - pw) ** 2) / (2 * pw * qw)
    return (w + (w * w - 1).sqrt()).ln()


def vol_distance(sigma_vol, rho, p, q):
    return half_plane_distance(image(sigma_vol, rho, p),
                               image(sigma_vol, rho, q)) / dec(sigma_vol)


def arc_line(P, Q, m, c):
    """Where the half-plane geodesic through the Decimal points P and Q
    meets the line m . Z = c that separates them: the circle centred on the
    axis through P and Q, cut by the line, at the root on P and Q's arc."""
    (pu, pw), (qu, qw) = P, Q
    mu, mw = m
    sp, sq = mu * pu + mw * pw - c, mu * qu + mw * qw - c
    s = sp / (sp - sq)
    Mu, Mw = pu + s * (qu - pu), pw + s * (qw - pw)
    if qu == pu:
        return Mu, Mw
    a = (qu * qu + qw * qw - pu * pu - pw * pw) / (2 * (qu - pu))
    norm = (mu * mu + mw * mw).sqrt()
    Tu, Tw = -mw / norm, mu / norm
    b = Tu * (Mu - a) + Tw * Mw
    root = (b * b + (pu - a) ** 2 + pw * pw - (Mu - a) ** 2 - Mw * Mw).sqrt()
    # the arc lies on the side of the chord away from the centre
    nu, nw = pw - qw, qu - pu
    if nu * (pu - a) + nw * pw < 0:
        nu, nw = -nu, -nw
    for t in (root - b, -root - b):
        if nu * t * Tu + nw * t * Tw > 0:
            return Mu + t * Tu, Mw + t * Tw
    raise AssertionError("no root on the arc")


def reflection(sigma_vol, x, y, x0):
    """(J, crossing height) of the uncorrelated reflection across x = x0."""
    sv, x0 = dec(sigma_vol), dec(x0)
    X, Y = image(sigma_vol, 0.0, x), image(sigma_vol, 0.0, y)
    Y_ref = (2 * x0 - Y[0], Y[1])
    S, D = half_plane_distance(X, Y_ref), half_plane_distance(X, Y)
    height = sv * arc_line(X, Y_ref, (Decimal(1), Decimal(0)), x0)[1]
    return (S * S - D * D) / (2 * sv * sv), height


def straddle(sigma_vol, rho, x, y, normal, offset):
    """The crossing of the x-to-y geodesic with the plane normal . z = offset."""
    sv, rho = dec(sigma_vol), dec(rho)
    n0, n1 = dec(normal[0]), dec(normal[1])
    rb = (1 - rho * rho).sqrt()
    m = (rb * n0, rho * n0 + sv * n1)  # A^-T n
    Z = arc_line(image(sigma_vol, rho, x), image(sigma_vol, rho, y), m, dec(offset))
    return state(sigma_vol, rho, Z)
