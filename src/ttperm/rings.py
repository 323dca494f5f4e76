"""Exact coefficient domains and the dense helpers of Smith normal form.

Three domains are supported: the integers, the rationals, and prime
fields.  Values are plain Python objects (``int`` for ZZ and GF(p),
``fractions.Fraction`` for QQ) so that all arithmetic is exact; no
floats appear anywhere in this package.  ``normalize`` puts a value in
its canonical form; a QQ value that already is a ``Fraction`` is
returned unchanged.

Maps between modules are sparse (``permod.EquivMap.entries``).  The
dense matrices here, lists of lists with ``M[i][j]`` in row ``i`` and
column ``j``, serve only Smith normal form and the small relation
matrices of ``homotopy.FgModule``: ``mat_zero``, ``mat_identity`` and
``mat_mul``, which re-multiplies a factorization to check it.

``factorize`` is the package's one prime factorisation; primality,
prime-power and Sylow-order questions elsewhere are answered from it.
"""

from fractions import Fraction


class CoefficientDomain:
    """Base class; concrete domains are singletons (per prime for GF)."""

    is_field = False
    characteristic = 0

    def from_int(self, n):
        raise NotImplementedError

    def normalize(self, x):
        return x

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

    def from_int(self, n):
        return int(n)

    def is_unit(self, x):
        return x == 1 or x == -1

    def inv(self, x):
        assert x in (1, -1)
        return x


class _Rationals(CoefficientDomain):
    name = "Q"
    is_field = True

    def from_int(self, n):
        return Fraction(n)

    def normalize(self, x):
        return x if isinstance(x, Fraction) else Fraction(x)

    def is_unit(self, x):
        return x != 0

    def inv(self, x):
        return 1 / Fraction(x)


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

    def from_int(self, n):
        return int(n) % self.p

    def normalize(self, x):
        return int(x) % self.p

    def is_unit(self, x):
        return x % self.p != 0

    def inv(self, x):
        return pow(int(x), -1, self.p)


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
    assert k == k2, "shape mismatch %s * %s" % (mat_shape(A), mat_shape(B))
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
