"""Exact coefficient domains, prime factorisation and dense matrices.

Three domains are supported: the integers, the rationals, and prime
fields.  Values are plain Python objects so that all arithmetic is
exact: ``int`` for ZZ and GF(p), and for QQ an ``int`` when the value
is integral and a ``fractions.Fraction`` in lowest terms only otherwise.
Most QQ values are integers carried from Z, so they multiply as ints.
``normalize`` puts a value in its canonical form and raises
``TypeError`` on a value outside the domain, so no value is truncated
and no float enters the exact arithmetic: over ZZ an int is kept, over
QQ a non-integral ``Fraction`` is returned unchanged, and over GF(p)
an int is reduced mod p.  Since ``int / int`` is a float, every true
division of ring values goes through ``inv``.

Maps between modules are sparse (``permod.EquivMap.entries``), and so
are vectors, the dicts {index: value} of their nonzero coordinates.  No
computation in the package is dense.  The dense matrices here, lists of
lists with ``M[i][j]`` in row ``i`` and column ``j`` (``mat_zero``,
``mat_identity`` and ``mat_mul``), are the reference that the tests
check sparse products against, and ``perfbench/tracer.py`` measures
``mat_mul`` by name.

``factorize`` is the package's one prime factorisation and
``prime_power`` its one prime-power test; primality and Sylow-order
questions elsewhere read ``factorize``.
"""

from fractions import Fraction


class CoefficientDomain:
    """Base class; concrete domains are singletons (per prime for GF)."""

    is_field = False
    characteristic = 0

    def from_int(self, n):
        return self.normalize(n)

    def normalize(self, x):
        raise NotImplementedError

    @property
    def zero(self):
        return self.from_int(0)

    @property
    def one(self):
        return self.from_int(1)

    def is_unit(self, x):
        raise NotImplementedError

    def inv(self, x):
        """Multiplicative inverse; only defined on units."""
        raise NotImplementedError

    def __repr__(self):
        return self.name


class _Integers(CoefficientDomain):
    name = "Z"

    def normalize(self, x):
        if type(x) is int:
            return x
        if isinstance(x, int):
            return int(x)
        raise TypeError("a Z value is an int, got %s" % type(x).__name__)

    def is_unit(self, x):
        return x == 1 or x == -1

    def inv(self, x):
        x = self.normalize(x)
        if x != 1 and x != -1:
            raise ValueError("%d is not a unit of Z" % x)
        return x


class _Rationals(CoefficientDomain):
    """Canonical values: an ``int`` when integral, otherwise a
    ``Fraction`` in lowest terms (never one with denominator 1)."""

    name = "Q"
    is_field = True

    def normalize(self, x):
        if type(x) is int:
            return x
        if isinstance(x, Fraction):
            return x.numerator if x.denominator == 1 else x
        if isinstance(x, int):
            return int(x)
        raise TypeError("a QQ value is an int or a Fraction, got %s"
                        % type(x).__name__)

    def is_unit(self, x):
        return x != 0

    def inv(self, x):
        if x == 1 or x == -1:
            return int(x)
        return self.normalize(Fraction(1, x))


class PrimeField(CoefficientDomain):
    is_field = True

    _instances = {}

    def __new__(cls, p):
        if p not in cls._instances:
            if factorize(p) != {p: 1}:
                raise ValueError("PrimeField needs a prime, got %r" % (p,))
            inst = super().__new__(cls)
            inst.p = p
            inst.name = "F%d" % p
            inst.characteristic = p
            cls._instances[p] = inst
        return cls._instances[p]

    def normalize(self, x):
        if type(x) is int:
            return x % self.p
        if isinstance(x, int):
            return int(x) % self.p
        raise TypeError("an F%d value is an int, got %s"
                        % (self.p, type(x).__name__))

    def is_unit(self, x):
        return x % self.p != 0

    def inv(self, x):
        return pow(self.normalize(x), -1, self.p)


ZZ = _Integers()
QQ = _Rationals()


def GF(p):
    return PrimeField(p)


def domain_from_name(name):
    """Parse a ring name as used by the CLI: Z, Q, F2, F3, F5, ..."""
    name = name.strip()
    if name == "Z":
        return ZZ
    if name == "Q":
        return QQ
    if name.startswith("F") and name[1:].isdigit():
        return GF(int(name[1:]))
    raise ValueError("unknown coefficient ring %r (expected Z, Q or F<p>)"
                     % (name,))


def factorize(n):
    """{p: k} with n the product of the p^k, primes in increasing order
    (empty for n < 2)."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = 1
    return out


def prime_power(n):
    """(p, k) with n = p^k, or None."""
    factors = list(factorize(n).items())
    return factors[0] if len(factors) == 1 else None


# ---------------------------------------------------------------------------
# matrix helpers (dense, exact)

def mat_zero(ring, rows, cols):
    z = ring.zero
    return [[z] * cols for _ in range(rows)]


def mat_identity(ring, n):
    M = mat_zero(ring, n, n)
    one = ring.one
    for i in range(n):
        M[i][i] = one
    return M


def mat_shape(M):
    return (len(M), len(M[0]) if M else 0)


def mat_mul(ring, A, B):
    n, k = mat_shape(A)
    k2, m = mat_shape(B)
    if k != k2:
        raise ValueError("shape mismatch %r * %r" % ((n, k), (k2, m)))
    norm = ring.normalize
    out = mat_zero(ring, n, m)
    for i in range(n):
        Ai = A[i]
        Oi = out[i]
        for t in range(k):
            a = Ai[t]
            if a == 0:
                continue
            Bt = B[t]
            for j in range(m):
                b = Bt[j]
                if b != 0:
                    Oi[j] = norm(Oi[j] + a * b)
    return out
