"""Sparse multivariate polynomials over the integers and the rationals.

Coefficients are arbitrary-precision: plain ``int`` where possible, stdlib
``fractions.Fraction`` otherwise (the two mix freely; integer-only inputs stay
on the fast integer path, which matters for the degree-95 compositions built
on top of this module).  Polynomials are sparse maps

    exponent tuple (one entry per ring variable)  ->  nonzero coefficient

tagged with their ring.  Everything here is immutable-by-convention and pure:
no operation mutates its arguments.  Integer factorization and radicals
live in ``integers``.

Z[phi] is the ring of integers of Q(sqrt 5).  Its elements are Phi numbers
a + b*phi with phi^2 = phi + 1; they mix with int on either side of the
operators, and Phi(a, 0) == a.  So ``Poly.evaluate`` and every routine of
``binaryforms`` take ints, Phis or both through Python's operators: there
are no domain tables, and a computation stays in int until a Phi enters it.

Forms with int coefficients can also travel as packed integers (Kronecker
substitution; Fateman 2010, Harvey 2009): the last variable is set to 1, the
exponents of the others are the base-(D+1) digits of a position, and each
coefficient is one signed, byte-aligned digit there, wide enough for a bound
on the result's coefficients.  One CPython big-int product or Horner
evaluation then replaces the loops over terms, and one linear pass over the
bytes unpacks the result.  ``Poly.__mul__`` takes this path for products
whose pairs of terms outnumber by a quarter the terms packed and the digits
unpacked, ``Poly.substitute`` for forms of degree d >= 1 into forms of one
degree k >= 1, and both only when the box of (D+1)**(n-1) digits for the
result degree D in n variables is at most four times the number of
monomials of degree D: always in 2 or 3 variables, in 5 only for D = 1.  Every other input (Fraction coefficients, polynomials that are not
forms, images of mixed degrees, sparse boxes) takes the generic path, with
the same result.

Division packs monomials too (Monagan & Pearce, CASC 2007) under every
order icotk uses, each a sequence of grevlex blocks of variables: per block
from the top, a degree field and then M - e_i for its variables from the
last to the first, each under a zero guard bit, with M >= every block
degree the division can reach (the bound is proved in ``divide``).  The
ints compare as the order does, a shift is one addition, and divisibility
is one subtraction, biased by M at the degree fields, masked by the guards.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import product
from math import comb, gcd, lcm

from .errors import NotDivisibleError, ParseError


def __getattr__(name: str):
    """``factorize``, read only by perfbench/tracing.py, which patches it by
    this name (it goes with the tracer's other names, binaryforms.ZZ and
    config.cache_dir).  It is bound on first access (PEP 562) and kept, so
    the patch can be made and undone like one of a name bound at import,
    and a command that never traces does not run ``integers``."""
    if name != "factorize":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .integers import factorize

    globals()[name] = factorize
    return factorize

# ---------------------------------------------------------------------------
# Z[phi], rings and polynomials
# ---------------------------------------------------------------------------


class Phi:
    """a + b*phi in Z[phi], phi^2 = phi + 1.  Immutable; mixes with int."""

    __slots__ = ("a", "b")

    def __init__(self, a: int = 0, b: int = 0):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __setattr__(self, name, value):
        raise AttributeError("Phi is immutable")

    def __reduce__(self):  # pickle and copy rebuild through __init__
        return Phi, (self.a, self.b)

    def __add__(self, other):
        if isinstance(other, Phi):
            return Phi(self.a + other.a, self.b + other.b)
        if isinstance(other, int):
            return Phi(self.a + other, self.b)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Phi):
            return Phi(self.a - other.a, self.b - other.b)
        if isinstance(other, int):
            return Phi(self.a - other, self.b)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, int):
            return Phi(other - self.a, -self.b)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Phi):
            a, b, c, d = self.a, self.b, other.a, other.b
            bd = b * d
            return Phi(a * c + bd, a * d + b * c + bd)
        if isinstance(other, int):
            return Phi(self.a * other, self.b * other)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out, base = Phi(1), self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __neg__(self):
        return Phi(-self.a, -self.b)

    def __bool__(self):
        return bool(self.a or self.b)

    def conj(self) -> "Phi":
        """Galois conjugate: phi -> 1 - phi."""
        return Phi(self.a + self.b, -self.b)

    def norm(self) -> int:
        """u * conj(u), an int; zero only for u = 0."""
        a, b = self.a, self.b
        return a * a + a * b - b * b

    def __divmod__(self, other):
        """(q, r) with self = q*other + r: q is u*conj(v)/norm(v) floored
        coordinatewise, so r == 0 exactly when other divides self."""
        if isinstance(other, int):
            other = Phi(other)
        elif not isinstance(other, Phi):
            return NotImplemented
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Z[phi]")
        w = self * other.conj()
        q = Phi(w.a // n, w.b // n)
        return q, self - q * other

    def __rdivmod__(self, other):
        if isinstance(other, int):
            return divmod(Phi(other), self)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, Phi):
            return self.a == other.a and self.b == other.b
        if isinstance(other, int):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        return hash(self.a) if self.b == 0 else hash((self.a, self.b))

    def __repr__(self):
        return f"Phi({self.a}, {self.b})"


class Ring:
    """An ordered tuple of variable names; the only ring data polynomials carry."""

    __slots__ = ("names", "index")

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        self.names = names
        self.index = {v: i for i, v in enumerate(names)}

    @property
    def nvars(self) -> int:
        return len(self.names)

    def __eq__(self, other):
        return isinstance(other, Ring) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"Ring({','.join(self.names)})"


P2 = Ring(("x", "y", "z"))
P4 = Ring(("x0", "x1", "x2", "x3", "x4"))


def _norm_coeff(c):
    """Collapse Fraction with denominator 1 to int (keeps the fast path hot)."""
    if type(c) is int:
        return c
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def grevlex_key(expo):
    """Sort key: e1 > e2 in grevlex iff grevlex_key(e1) > grevlex_key(e2)."""
    return (sum(expo), tuple(map(int.__neg__, reversed(expo))))


class Poly:
    """Sparse exact polynomial.  ``terms`` maps exponent tuples to nonzero
    int/Fraction coefficients; the zero polynomial has no terms."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: dict):
        self.ring = ring
        self.terms = terms  # trusted: no zeros, keys are tuples of len nvars

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring: Ring) -> "Poly":
        return cls(ring, {})

    @classmethod
    def constant(cls, ring: Ring, c) -> "Poly":
        c = _norm_coeff(Fraction(c) if not isinstance(c, (int, Fraction)) else c)
        if c == 0:
            return cls.zero(ring)
        return cls(ring, {(0,) * ring.nvars: c})

    @classmethod
    def variable(cls, ring: Ring, name: str) -> "Poly":
        i = ring.index[name]
        e = [0] * ring.nvars
        e[i] = 1
        return cls(ring, {tuple(e): 1})

    @classmethod
    def monomial(cls, ring: Ring, expo, c=1) -> "Poly":
        c = _norm_coeff(c)
        if c == 0:
            return cls.zero(ring)
        return cls(ring, {tuple(expo): c})

    @classmethod
    def from_terms(cls, ring: Ring, items) -> "Poly":
        acc: dict = {}
        for expo, c in items:
            expo = tuple(expo)
            s = acc.get(expo, 0) + c
            if s:
                acc[expo] = s
            else:
                acc.pop(expo, None)
        return cls(ring, {e: _norm_coeff(c) for e, c in acc.items()})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def coeff(self, expo) -> Fraction:
        return self.terms.get(tuple(expo), 0)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        # the exact-type test first: isinstance(., Fraction) on a Poly goes
        # through ABCMeta.__instancecheck__, several times slower
        if type(other) is not Poly and isinstance(other, (int, Fraction)):
            other = Poly.constant(self.ring, other)
        return (
            isinstance(other, Poly)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.ring != self.ring:
                raise ValueError("mixed rings")
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.constant(self.ring, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        big, small = (self, other) if len(self.terms) >= len(other.terms) else (other, self)
        out = dict(big.terms)
        for e, c in small.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = _norm_coeff(s)
            else:
                del out[e]
        return Poly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Product with a polynomial or a number.  Two forms with int
        coefficients multiply as packed integers (_kronecker) when their
        pairs of terms outnumber by a quarter the terms to pack and the
        digits to unpack (_packing_pays) and their box is dense
        (_dense_box); every other product, Fraction coefficients included,
        runs the double loop over the terms."""
        if type(other) is not Poly and isinstance(other, (int, Fraction)):
            other = _norm_coeff(other)
            if other == 0:
                return Poly.zero(self.ring)
            if other == 1:
                return self
            return Poly(
                self.ring,
                {e: _norm_coeff(c * other) for e, c in self.terms.items()},
            )
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.terms, other.terms
        if _packing_pays(a, b, self.ring.nvars):
            packed = _packed_product(self, other)
            if packed is not None:
                return packed
        # hash-accumulation product; deterministic canonicalization happens
        # in the printer, not here
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                key = tuple(map(int.__add__, e1, e2))
                s = out.get(key, 0) + c1 * c2
                if s:
                    out[key] = s
                else:
                    del out[key]
        return Poly(self.ring, {e: _norm_coeff(c) for e, c in out.items()})

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = Poly.constant(self.ring, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- evaluation / substitution ------------------------------------------

    def evaluate(self, point):
        """Exact value at a point of ints and Fractions, or of ints and Phis
        (a point over Z[phi]; its polynomial needs integer coefficients)."""
        if len(point) != self.ring.nvars:
            raise ValueError("arity mismatch")
        # Fraction last, for the reason given in __eq__
        point = [v if isinstance(v, (int, Phi, Fraction)) else _norm_coeff(Fraction(v))
                 for v in point]
        total = 0
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                if k:
                    v *= x**k
            total += v
        return _norm_coeff(total)

    def substitute(self, images) -> "Poly":
        """Compose: plug images[i] in for the i-th variable.

        All images must share a ring.  Horner's rule in images[0], each
        coefficient (a polynomial in the later variables) built the same way
        in images[1:]: every step multiplies by one image, so no power of an
        image is ever formed.  When self is a form of degree d >= 1 and the
        images are forms of one degree k >= 1, all with int coefficients,
        and the box of degree d*k is dense (_dense_box), the same Horner's
        rule runs on the packed images (_kronecker), with the powers of the
        last one built once and shared, and the result is unpacked once.
        Every other input, Fraction coefficients included, runs on
        polynomials.
        """
        if len(images) != self.ring.nvars:
            raise ValueError("arity mismatch")
        if not images:
            raise ValueError("empty image list")
        target = images[0].ring
        for im in images:
            if im.ring != target:
                raise ValueError("images must share one ring")
        packed = _packed_substitute(self, images)
        if packed is not None:
            return packed
        out = _horner(list(self.terms.items()), images)
        return out if isinstance(out, Poly) else Poly.constant(target, out)

    # -- division ----------------------------------------------------------

    def exact_div(self, q: "Poly") -> "Poly":
        """Return self / q if the division is exact, else NotDivisibleError."""
        q = self._coerce(q)
        grevlex = (tuple(range(self.ring.nvars)),)  # one block of every variable
        (quot,), rem = divide(self, [q], grevlex, full=False, quotients=True)
        if rem.terms:
            raise NotDivisibleError("not divisible")
        return quot

    def content_primitive(self):
        """(content, primitive part): self = c * q with q integer, coefficient
        gcd 1, positive grevlex-leading coefficient."""
        if self.is_zero():
            raise ValueError("zero polynomial has no primitive part")
        scaled, denom = _cleared(self)
        numer = gcd(*scaled.terms.values())
        if scaled.terms[max(scaled.terms, key=grevlex_key)] < 0:
            numer = -numer
        prim = Poly(self.ring, {e: c // numer for e, c in scaled.terms.items()})
        return _norm_coeff(Fraction(numer, denom)), prim

    def primitive_part(self) -> "Poly":
        return self.content_primitive()[1]

    def max_abs_coeff(self) -> int:
        """|F| = max |coefficient| for integer polynomials."""
        return max(map(abs, self.terms.values()), default=0)

    # -- printing ----------------------------------------------------------

    def _sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.ring.names
        chunks = []
        for e, c in self._sorted_terms():
            mono = "*".join(
                n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k
            )
            neg = c < 0
            a = -c if neg else c
            if mono:
                body = mono if a == 1 else f"{a}*{mono}"
            else:
                body = str(a)
            if not chunks:
                chunks.append(f"-{body}" if neg else body)
            else:
                chunks.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(chunks)

    __repr__ = __str__


def primitive_form(f, ring: Ring, what: str, where: str) -> Poly:
    """The primitive part of f, which must be a nonzero form of degree >= 1
    in ring (named `where` in the message); ValueError otherwise."""
    if not isinstance(f, Poly) or f.ring != ring:
        raise ValueError(f"{what} live in the {where} ring")
    if f.is_zero():
        raise ValueError(f"{what} must be nonzero")
    if not f.is_homogeneous():
        raise ValueError(f"{what} must be homogeneous")
    if f.degree() < 1:
        raise ValueError(f"{what} must have degree >= 1")
    return f.primitive_part()


# ---------------------------------------------------------------------------
# Horner's rule and the packed-integer (Kronecker) kernel for int forms
# ---------------------------------------------------------------------------


def _horner(items, xs, powers=None):
    """The sum of c * prod xs[i]**e[i] over the (e, c) in items, each e as
    long as xs, by Horner's rule in xs[0] from the top exponent down, and so
    on in each later x.  Given the list powers = [1, xs[-1], xs[-1]**2, ...],
    which grows as needed, the last of the xs is raised from that table
    instead.  The xs are polynomials or packed integers; the sum is 0 for no
    items and may be a number."""
    if not xs:
        return items[0][1]
    if powers is not None and len(xs) == 1:
        out = 0
        for (k,), c in items:
            while len(powers) <= k:
                powers.append(powers[-1] * xs[0])
            out = out + c * powers[k]
        return out
    groups: dict = {}
    for e, c in items:
        groups.setdefault(e[0], []).append((e[1:], c))
    out = 0
    for k in range(max(groups, default=-1), -1, -1):
        if out:
            out = out * xs[0]
        if k in groups:
            out = out + _horner(groups[k], xs[1:], powers)
    return out


def _packing_pays(a: dict, b: dict, nvars: int) -> bool:
    """Whether the product of the terms a and b, if they are forms, is large
    enough to pack: packing costs about one pair of the double loop for each
    term packed and each digit of the box unpacked, and in timings of the
    products of `verify --mode symbolic` and of random dense forms in 2 and 3
    variables it wins once the pairs outnumber those by a quarter.  Reads
    one term of each, so it costs nothing next to the product."""
    if not (a and b):
        return False
    D = sum(next(iter(a))) + sum(next(iter(b)))  # the degree of the product
    return 4 * len(a) * len(b) >= 5 * (len(a) + len(b) + (D + 1) ** (nvars - 1))


def _form_degree(p: Poly):
    """The degree of p when p is a nonzero form with int coefficients,
    else None."""
    degrees = set()
    for e, c in p.terms.items():
        if type(c) is not int:
            return None
        degrees.add(sum(e))
    return degrees.pop() if len(degrees) == 1 else None


def _dense_box(nvars: int, D: int) -> bool:
    """Whether degree-D forms in nvars variables pack densely: the box of
    (D+1)**(nvars-1) digits (the last variable dehomogenized) holds at most
    four digits per monomial of degree D.  True in 2 and 3 variables."""
    return (D + 1) ** (nvars - 1) <= 4 * comb(D + nvars - 1, nvars - 1)


def _pack(p: Poly, D: int, width: int) -> int:
    """p with x_i = 2**(8*width*(D+1)**(n-2-i)) for i < n-1 and x_{n-1} = 1:
    each coefficient is a signed digit of width bytes, at the position whose
    base-(D+1) digits are the exponents of the first n-1 variables.  Built
    from two byte buffers, the positive and the negative digits."""
    places = []
    for e, c in p.terms.items():
        pos = 0
        for k in e[:-1]:
            pos = pos * (D + 1) + k
        places.append((pos * width, c))
    size = max(at for at, _ in places) + width
    plus, minus = bytearray(size), bytearray(size)
    for at, c in places:
        if c > 0:
            plus[at:at + width] = c.to_bytes(width, "little")
        else:
            minus[at:at + width] = (-c).to_bytes(width, "little")
    return int.from_bytes(plus, "little") - int.from_bytes(minus, "little")


def _unpack(value: int, ring: Ring, D: int, width: int) -> Poly:
    """The degree-D form in ring that _pack(., D, width) maps to value, in
    one linear pass: half a digit added at every position makes each digit
    nonnegative, so the bytes split into digits with no borrow.  A nonzero
    digit off the degree-D simplex raises AssertionError."""
    count = (D + 1) ** (ring.nvars - 1)
    half = 1 << (8 * width - 1)
    offset = int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")
    data = (value + offset).to_bytes(width * count, "little")
    terms = {}
    heads = product(range(D + 1), repeat=ring.nvars - 1)
    for at, head in zip(range(0, width * count, width), heads):
        c = int.from_bytes(data[at:at + width], "little") - half
        if c:
            rest = D - sum(head)
            if rest < 0:
                raise AssertionError("packed digit off the degree-D simplex")
            terms[head + (rest,)] = c
    return Poly(ring, terms)


def _packed_product(p: Poly, q: Poly):
    """p * q through _kronecker, or None unless both are forms with int
    coefficients in a dense box.  No coefficient of the product exceeds
    max|p| * max|q| * min(#p, #q)."""
    dp, dq = _form_degree(p), _form_degree(q)
    if dp is None or dq is None or not _dense_box(p.ring.nvars, dp + dq):
        return None
    bound = p.max_abs_coeff() * q.max_abs_coeff() * min(len(p.terms), len(q.terms))
    return _kronecker(p.ring, dp + dq, bound, (p, q), int.__mul__)


def _packed_substitute(p: Poly, images):
    """p.substitute(images) through _kronecker, or None unless p is a form
    of degree d >= 1 and the images are forms of one degree k >= 1, all
    with int coefficients, in a dense box of degree d*k.  No coefficient
    of the result exceeds ||p||_1 * max ||image||_1 ** d."""
    d = _form_degree(p)
    degrees = {_form_degree(im) for im in images}
    if not d or len(degrees) != 1:
        return None
    k = degrees.pop()
    if not k or not _dense_box(images[0].ring.nvars, d * k):
        return None
    items = list(p.terms.items())
    norm = max(sum(map(abs, im.terms.values())) for im in images)
    bound = sum(map(abs, p.terms.values())) * norm**d
    return _kronecker(images[0].ring, d * k, bound, images,
                      lambda *xs: _horner(items, xs, [1]))


def _kronecker(ring: Ring, D: int, bound: int, forms, combine):
    """combine(*forms) computed on packed integers: the forms and the
    result are forms in ring, the result of degree D with coefficients of
    absolute value at most bound, and combine uses only + and *."""
    width = (bound.bit_length() + 8) // 8  # bound's bits and a sign bit, in bytes
    return _unpack(combine(*(_pack(f, D, width) for f in forms)), ring, D, width)


# ---------------------------------------------------------------------------
# division
# ---------------------------------------------------------------------------


def field_bound(blocks, deg: int, top: int) -> int:
    """The least M (``divide``) for a degree-deg p and divisors of degree <= top."""
    bound = moves = 0
    for block in blocks:
        d = deg + top * moves
        bound += d
        moves += (moves + 1) * (comb(d + len(block), len(block)) - 1)
    return max(bound, top)


class Layout:
    """Packed monomials under the order of blocks (``divide``), M >= bound."""

    def __init__(self, nvars: int, blocks, bound: int):
        bits = bound.bit_length()
        self.M = M = (1 << bits) - 1
        width = bits + 1
        self.places, self.shifts = [0] * nvars, [0] * nvars
        self.zero = self.bias = self.guards = at = 0  # zero = K(0)
        for block in reversed(blocks):  # from the bottom field up
            for i in block:
                self.places[i], self.shifts[i] = -(1 << at), at
                self.zero += M << at
                self.guards += 1 << (at + bits)
                at += width
            for i in block:
                self.places[i] += 1 << at
            self.bias += M << at
            at += width

    def pack(self, e) -> int:
        return self.zero + sum(map(int.__mul__, e, self.places))

    def pack_terms(self, terms: dict) -> dict:
        return {self.pack(e): c for e, c in terms.items()}

    def unpack(self, terms: dict) -> dict:
        # field by field over all keys: a third of the time of key by key
        M = self.M
        fields = [[M - (k >> s & M) for k in terms] for s in self.shifts]
        exponents = zip(*fields) if fields else [()] * len(terms)
        return dict(zip(exponents, terms.values()))

    def head(self, d: Poly) -> tuple:
        """d packed: (K(lead) + bias, K(lead), lc, [(K(e) - K(lead), c)...])."""
        packed = self.pack_terms(d.terms)
        lead = max(packed)
        lc = packed.pop(lead)
        return lead + self.bias, lead, lc, [(k - lead, c) for k, c in packed.items()]

    def reduce(self, rem: dict, heads, spend=None, full=True, quots=None):
        """The loop of ``divide`` over Z on packed rem, consumed, by heads
        (i, *head(d_i)): (r * s, s), s > 0 the product of the scalings."""
        guards, zero = self.guards, self.zero
        heap = [-k for k in rem]
        heapify(heap)
        done: dict = {}
        s = 1
        while heap:
            e = -heappop(heap)
            c = rem.get(e)
            if c is None:  # cancelled after it was pushed
                continue
            for i, test, lead, lc, tail in heads:
                if not (test - e) & guards:
                    break
            else:
                if not full:
                    break
                done[e] = rem.pop(e)
                continue
            if spend is not None:
                spend()
            del rem[e]
            if c % lc:
                mult = abs(lc) // gcd(c, lc)
                rem = {k: v * mult for k, v in rem.items()}
                done = {k: v * mult for k, v in done.items()}
                if quots is not None:
                    quots[:] = [{k: v * mult for k, v in q.items()} for q in quots]
                c *= mult
                s *= mult
            factor = c // lc
            if quots is not None:
                quots[i][e - lead + zero] = factor
            for step, tc in tail:
                k = e + step
                old = rem.get(k)
                if old is None:
                    rem[k] = -factor * tc
                    heappush(heap, -k)
                else:
                    old -= factor * tc
                    if old:
                        rem[k] = old
                    else:
                        del rem[k]
        return (done if full else rem), s


def divide(p: Poly, divisors, blocks, spend=None, full=True, quotients=False):
    """Sparse division of p by a list of nonzero polynomials under the
    monomial order given by blocks: tuples of variable indices, every
    variable in exactly one, compared in turn, by grevlex inside each.
    One block of all variables is grevlex, one block per variable is lex.

    Remainder terms are taken in decreasing order from a heap (Monagan &
    Pearce, JSC 2011), and each one is reduced by the *first* divisor whose
    leading term divides it; every reduction calls ``spend()`` once.  The
    first term that no divisor reduces either ends the division
    (``full=False``: top-reduction, returning everything left as the
    remainder) or moves to the remainder (``full=True``: a normal form).

    Returns the remainder r, or with ``quotients=True`` the pair
    ``(quotients, r)`` with p = sum(q_i * d_i) + r; a zero divisor raises
    ZeroDivisionError.  The loop (``Layout.reduce``) runs over Z on p and
    the divisors times their denominators' lcm: where lc does not divide c
    it first multiplies the terms left and done and the quotients by
    |lc|/gcd(c, lc).  Supports, steps and spend() calls are those over Q;
    on exit r and the quotients are divided by those factors and lcms.

    Monomials are packed (Monagan & Pearce, CASC 2007): the exponent vector
    e becomes the int K(e) whose fields are, from the top, for each block
    its degree, then M - e_i for its variables from the last to the first,
    each field B bits wide under a zero guard bit, M = 2**B - 1.  K is
    affine in e, so a shift by a monomial is one addition; while every
    block degree is at most M, the ints compare as the order does; and with
    M added at each degree field (the bias), lead divides e iff no guard
    bit of K(lead) + bias - K(e) is set, since then no field borrows.
    Without the bias a lower block's degree field, deg(lead) - deg(e) <= 0,
    would borrow from the block above it.

    Field bound.  Let D be the largest divisor degree and moves_0 = 0; for
    the blocks B_1, B_2, ... in turn, d_j = deg p + D * moves_(j-1) and
    moves_j = moves_(j-1) + (moves_(j-1) + 1) * (C(d_j + |B_j|, |B_j|) - 1).
    Then M >= max(D, d_1 + d_2 + ...).  Proof: every term of the division comes
    from a term of p by a chain of reductions, each replacing t by
    t - lead + s for a tail term s < lead of a divisor.  Let the step be
    decided in block j, the first block where s and lead differ.  It
    leaves the earlier blocks of t alone, moves block j down in grevlex
    (so its degree does not rise), and raises the degree of each later
    block by at most deg s <= D.  So along a chain the degree of block j
    rises only at steps decided in earlier blocks, at most moves_(j-1) of
    them, and stays at most d_j; block j then takes at most
    C(d_j + |B_j|, |B_j|) values, so between two steps decided in earlier
    blocks at most that many less one steps are decided in block j, and
    moves_j bounds the steps decided in blocks 1..j.  Each term thus has
    block degrees at most d_j and total degree at most d_1 + d_2 + ... .
    A divisor of higher degree packs (M >= D) but reduces nothing, as its
    tail would give a term of higher degree.  With one block M >= deg p.

    One ``Layout`` may serve many divisions (a whole Buchberger run) if its
    M is at least the field bound of each; widening it repacks every
    divisor.  A larger M changes no result: while no block degree exceeds
    M no field reaches its guard bit, so order and divisibility are exact.

    The terms are packed on entry and unpacked on exit in the same order,
    so the result's dicts are ordered as on exponent tuples."""
    if not all(d.terms for d in divisors):
        raise ZeroDivisionError("division by the zero polynomial")
    if not p.terms:
        return ([Poly.zero(p.ring) for _ in divisors], p) if quotients else p
    top = max((d.degree() for d in divisors), default=0)
    layout = Layout(p.ring.nvars, blocks, field_bound(blocks, p.degree(), top))
    (p, dp), *cleared = map(_cleared, [p, *divisors])
    heads = [(i, *layout.head(d)) for i, (d, _) in enumerate(cleared)]
    quots = [{} for _ in divisors] if quotients else None
    rem, s = layout.reduce(layout.pack_terms(p.terms), heads, spend, full, quots)
    r = Poly(p.ring, layout.unpack(rem)) * Fraction(1, s * dp)
    return ([Poly(p.ring, layout.unpack(q)) * Fraction(dd, s * dp)
             for q, (_, dd) in zip(quots, cleared)], r) if quotients else r


def _cleared(p: Poly):
    """(p times the lcm d of its coefficients' denominators, d)."""
    d = lcm(*{c.denominator for c in p.terms.values()})
    return p * d, d


class Echelon:
    """Exact Gaussian elimination over Q on sparse vectors, dicts from an
    index to nonzero int/Fraction entries, added one at a time and numbered
    0, 1, ... in that order."""

    def __init__(self):
        self._count = 0
        self._rows = []  # (pivot, row, combination of added vectors = row)

    def add(self, vec: dict):
        """Record vec.  Returns None when it is independent of the vectors
        added before it; else {number: coefficient}, the combination of
        earlier independent vectors that equals it."""
        own = self._count
        self._count += 1
        vec = dict(vec)
        comb = {own: 1}
        for piv, row, row_comb in self._rows:
            c = vec.get(piv)
            if c is not None:
                factor = _norm_coeff(Fraction(c) / row[piv])
                _sub_scaled(vec, factor, row)
                _sub_scaled(comb, factor, row_comb)
        if vec:
            self._rows.append((next(iter(vec)), vec, comb))
            return None
        del comb[own]
        return {k: -c for k, c in comb.items()}


def _sub_scaled(acc: dict, factor, vec: dict) -> None:
    """acc -= factor * vec in place, dropping entries that cancel."""
    for k, c in vec.items():
        s = acc.get(k, 0) - factor * c
        if s:
            acc[k] = _norm_coeff(s)
        else:
            acc.pop(k, None)


# ---------------------------------------------------------------------------
# parsing (grammar in module docs: terms joined by +/-, coeff [-]a or a/b,
# monomial var[^k] products joined by *, parentheses allowed)
# ---------------------------------------------------------------------------


class _Parser:
    MAX_DEPTH = 100  # nested parentheses; each level is four Python frames

    def __init__(self, text: str, ring: Ring):
        self.text = text
        self.ring = ring
        self.pos = 0
        self.depth = 0

    def error(self, msg):
        raise ParseError(msg, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            self.error(f"expected '{ch}'")
        self.pos += 1

    def parse(self) -> Poly:
        p = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing input")
        return p

    def expr(self) -> Poly:
        sign = 1
        c = self.peek()
        if c in "+-":
            self.pos += 1
            sign = -1 if c == "-" else 1
        p = self.term() * sign
        while True:
            c = self.peek()
            if c == "+":
                self.pos += 1
                p = p + self.term()
            elif c == "-":
                self.pos += 1
                p = p - self.term()
            else:
                return p

    def term(self) -> Poly:
        p = self.factor()
        while self.peek() == "*":
            self.pos += 1
            p = p * self.factor()
        return p

    def factor(self) -> Poly:
        base = self.base()
        if self.peek() == "^":
            self.pos += 1
            k = self.integer()
            return base**k
        return base

    def base(self) -> Poly:
        c = self.peek()
        if c == "(":
            if self.depth == self.MAX_DEPTH:
                self.error(f"parentheses nested deeper than {self.MAX_DEPTH}")
            self.pos += 1
            self.depth += 1
            p = self.expr()
            self.expect(")")
            self.depth -= 1
            return p
        if c.isdigit():
            n = self.integer()
            if self.peek() == "/":
                self.pos += 1
                d = self.integer()
                if d == 0:
                    self.error("zero denominator")
                return Poly.constant(self.ring, Fraction(n, d))
            return Poly.constant(self.ring, n)
        if c.isalpha():
            return Poly.variable(self.ring, self.name())
        self.error("expected a coefficient, variable, or '('")

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer")
        return int(self.text[start : self.pos])

    def name(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        word = self.text[start : self.pos]
        if word not in self.ring.index:
            self.pos = start
            self.error(f"unknown variable '{word}'")
        return word


def poly_parse(text: str, ring: Ring) -> Poly:
    """Parse the ASCII polynomial grammar; round-trips with str() on canonical
    form.  Raises ParseError with a byte offset on malformed input."""
    return _Parser(text, ring).parse()


# ---------------------------------------------------------------------------
# free-function helpers
# ---------------------------------------------------------------------------


def elementary_symmetric(ring: Ring, k: int) -> Poly:
    """sigma_k in the ring variables (C(n,k) terms, coefficients 1)."""
    if not 1 <= k <= ring.nvars:
        raise ValueError(f"need 1 <= k <= {ring.nvars}")
    # the 0/1 exponent vectors of degree k, in descending order
    return Poly(ring, {e: 1 for e in product((1, 0), repeat=ring.nvars) if sum(e) == k})
