"""Definite rational quaternion algebras with exact arithmetic.

An algebra (a,b) has basis 1, i, j, k with i^2 = a, j^2 = b, ij = k = -ji.
A quaternion is a coordinate 4-tuple over that basis: the package keeps
integer rows over one common denominator (see lattices), and mul4, norm4
and bilin4 act on the rows.  The reduced norm is
x0^2 - a*x1^2 - b*x2^2 + a*b*x3^2, positive definite for a < 0, b < 0.

`construct_algebra(N)` returns the algebra ramified exactly at {N, oo} for a
prime N.  The recipe is not trusted: `maximal_order` certifies it by the
reduced discriminant of its order (see orders).
"""


class ConsistencyError(ArithmeticError):
    """An internal invariant failed; indicates a bug, not bad input."""


class ConstructionError(RuntimeError):
    """A certified construction (algebra, maximal order) could not be completed."""


def is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def legendre(u, p):
    """Legendre symbol (u|p) for an odd prime p; 0 when p divides u."""
    t = pow(u % p, (p - 1) // 2, p)
    if t == 0:
        return 0
    return 1 if t == 1 else -1


class QuaternionAlgebra:
    """The rational quaternion algebra (a,b), definite, a < 0 > b; the
    prime level where it ramifies is certified by `maximal_order`."""

    def __init__(self, a, b, level=None):
        if a >= 0 or b >= 0:
            raise ValueError("need a < 0 and b < 0 for a definite algebra")
        if level is not None and not is_prime(level):
            raise ValueError(f"level must be prime, got {level}")
        self.a = int(a)
        self.b = int(b)
        self.level = level

    def __repr__(self):
        return f"QuaternionAlgebra({self.a}, {self.b})"

    def __eq__(self, other):
        return (isinstance(other, QuaternionAlgebra)
                and (self.a, self.b) == (other.a, other.b))

    def __hash__(self):
        return hash((self.a, self.b))


def mul4(a, b, x, y):
    """Product of quaternions given as coordinate 4-tuples."""
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return (x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
            x0 * y1 + x1 * y0 - b * x2 * y3 + b * x3 * y2,
            x0 * y2 + x2 * y0 + a * x1 * y3 - a * x3 * y1,
            x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1)


def norm4(a, b, x):
    x0, x1, x2, x3 = x
    return x0 * x0 - a * x1 * x1 - b * x2 * x2 + a * b * x3 * x3


def bilin4(a, b, x, y):
    """Polarization of the norm form: (N(x+y) - N(x) - N(y)) / 2, but exact
    and denominator-free on integer input because the form is diagonal."""
    return (x[0] * y[0] - a * x[1] * y[1] - b * x[2] * y[2]
            + a * b * x[3] * y[3])


def construct_algebra(N):
    """The definite quaternion algebra ramified exactly at {N, oo}.

    Standard recipe by residue class of the prime N.  `maximal_order`
    certifies the algebra by the reduced discriminant of its order, so a
    wrong recipe cannot silently go through.
    """
    if not is_prime(N):
        raise ValueError(f"level must be prime, got {N}")
    if N == 2:
        return QuaternionAlgebra(-1, -1, level=2)
    if N % 4 == 3:
        return QuaternionAlgebra(-1, -N, level=N)
    if N % 8 == 5:
        return QuaternionAlgebra(-2, -N, level=N)
    # N = 1 mod 8: the least prime r = 3 mod 4 with (N|r) = -1 (Pizer's
    # condition; then (-r,-N) ramifies exactly at {N, oo})
    r = 3
    while r < 10000:
        if is_prime(r) and legendre(N, r) == -1:
            return QuaternionAlgebra(-r, -N, level=N)
        r += 4
    raise ConstructionError(f"no auxiliary prime found for N={N}")
