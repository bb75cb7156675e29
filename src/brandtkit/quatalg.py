"""Definite rational quaternion algebras with exact arithmetic.

An algebra (a,b) has basis 1, i, j, k with i^2 = a, j^2 = b, ij = k = -ji.
Elements carry Fraction coordinates over that basis.  The reduced norm is
x0^2 - a*x1^2 - b*x2^2 + a*b*x3^2, positive definite for a < 0, b < 0.

`construct_algebra(N)` returns the algebra ramified exactly at {N, oo} for a
prime N, certified by Hilbert symbols rather than trusted from the recipe.
"""

from fractions import Fraction
from math import gcd

OO = float("inf")  # the archimedean place


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


def _split_p(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def legendre(u, p):
    """Legendre symbol (u|p) for an odd prime p; 0 when p divides u."""
    t = pow(u % p, (p - 1) // 2, p)
    if t == 0:
        return 0
    return 1 if t == 1 else -1


def hilbert_symbol(a, b, place):
    """Hilbert symbol (a,b)_v at a finite prime or at OO.

    Uses the classical closed formulas (quadratic-symbol bookkeeping on the
    p-parts of a and b); see any standard treatment of quadratic forms over
    the p-adics.
    """
    if a == 0 or b == 0:
        raise ValueError("hilbert symbol needs nonzero arguments")
    if place == OO:
        return -1 if (a < 0 and b < 0) else 1
    p = place
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"place must be a prime or OO, got {place!r}")
    if p == 2:
        al, u = _split_p(a, 2)
        be, v = _split_p(b, 2)
        eps_u = ((u - 1) // 2) % 2
        eps_v = ((v - 1) // 2) % 2
        om_u = ((u * u - 1) // 8) % 2
        om_v = ((v * v - 1) // 8) % 2
        e = eps_u * eps_v + al * om_v + be * om_u
        return -1 if e % 2 else 1
    al, u = _split_p(a, p)
    be, v = _split_p(b, p)
    s = 1
    if (al % 2) and (be % 2) and p % 4 == 3:
        s = -s
    if be % 2:
        s *= legendre(u, p)
    if al % 2:
        s *= legendre(v, p)
    return s


def ramified_primes(a, b):
    """Finite primes where (a,b) ramifies."""
    cand = set()
    for n in (2, abs(a), abs(b)):
        n = abs(n)
        d = 2
        while d * d <= n:
            if n % d == 0:
                cand.add(d)
                while n % d == 0:
                    n //= d
            d += 1
        if n > 1:
            cand.add(n)
    cand.add(2)
    return sorted(p for p in cand if hilbert_symbol(a, b, p) == -1)


class QuaternionAlgebra:
    """The rational quaternion algebra (a,b), definite, a < 0 > b."""

    def __init__(self, a, b, level=None):
        if a >= 0 or b >= 0:
            raise ValueError("need a < 0 and b < 0 for a definite algebra")
        self.a = int(a)
        self.b = int(b)
        self.level = level
        if level is not None:
            ram = ramified_primes(a, b)
            if ram != [level] or hilbert_symbol(a, b, OO) != -1:
                raise ConstructionError(
                    f"({a},{b}) ramifies at {ram}, not exactly at {{{level}}}")

    def __repr__(self):
        return f"QuaternionAlgebra({self.a}, {self.b})"

    def __eq__(self, other):
        return (isinstance(other, QuaternionAlgebra)
                and (self.a, self.b) == (other.a, other.b))

    def __hash__(self):
        return hash((self.a, self.b))

    def element(self, x0, x1=0, x2=0, x3=0):
        return QuatElement(self, (Fraction(x0), Fraction(x1),
                                  Fraction(x2), Fraction(x3)))

    def one(self):
        return self.element(1)

    def gens(self):
        i = self.element(0, 1)
        j = self.element(0, 0, 1)
        return i, j, i * j


def mul4(a, b, x, y):
    """Product of quaternions given as coordinate 4-tuples (int or Fraction)."""
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


def conj4(x):
    return (x[0], -x[1], -x[2], -x[3])


class QuatElement:
    """A quaternion with exact rational coordinates."""

    __slots__ = ("alg", "coords")

    def __init__(self, alg, coords):
        self.alg = alg
        self.coords = tuple(Fraction(c) for c in coords)

    def _compat(self, other):
        if self.alg != other.alg:
            raise ValueError("elements live in different quaternion algebras")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.alg.element(other)
        self._compat(other)
        return QuatElement(self.alg, tuple(x + y for x, y in
                                           zip(self.coords, other.coords)))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.alg.element(other)
        self._compat(other)
        return QuatElement(self.alg, tuple(x - y for x, y in
                                           zip(self.coords, other.coords)))

    def __neg__(self):
        return QuatElement(self.alg, tuple(-x for x in self.coords))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuatElement(self.alg, tuple(x * other for x in self.coords))
        self._compat(other)
        return QuatElement(self.alg,
                           mul4(self.alg.a, self.alg.b, self.coords, other.coords))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuatElement(self.alg, tuple(other * x for x in self.coords))
        return NotImplemented

    def __truediv__(self, scalar):
        return QuatElement(self.alg, tuple(x / Fraction(scalar) for x in self.coords))

    def conjugate(self):
        return QuatElement(self.alg, conj4(self.coords))

    def reduced_trace(self):
        return 2 * self.coords[0]

    def reduced_norm(self):
        return norm4(self.alg.a, self.alg.b, self.coords)

    def inverse(self):
        n = self.reduced_norm()
        if n == 0:
            raise ZeroDivisionError("zero quaternion")
        return QuatElement(self.alg, tuple(c / n for c in conj4(self.coords)))

    def is_integral(self):
        return self.reduced_trace().denominator == 1 and \
            self.reduced_norm().denominator == 1

    def __eq__(self, other):
        return (isinstance(other, QuatElement) and self.alg == other.alg
                and self.coords == other.coords)

    def __hash__(self):
        return hash((self.alg, self.coords))

    def __repr__(self):
        return f"QuatElement{self.coords}"


def construct_algebra(N):
    """The definite quaternion algebra ramified exactly at {N, oo}.

    Standard recipe by residue class of the prime N; the returned algebra is
    always re-certified with Hilbert symbols, so a wrong recipe cannot
    silently go through.
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
