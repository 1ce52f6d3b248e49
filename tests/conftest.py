import os

from hypothesis import HealthCheck, settings

from icotk.algebra import Layout, Poly, field_bound, grevlex_key

# one line per acceptance criterion, echoed after the test summary so the
# pass/fail record is visible without -s
ACCEPTANCE_LINES = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def block_key(block):
    """The sort key of a two-block order: the exponents of the variables in
    ``block`` (indices) by grevlex, ties broken by grevlex on the rest."""
    def key(expo):
        inside = tuple(expo[i] for i in block)
        rest = tuple(e for i, e in enumerate(expo) if i not in block)
        return (grevlex_key(inside), grevlex_key(rest))
    return key


def scaled_division(p, divisors, blocks, spend=None, full=True):
    """(the division of p by divisors, all with int coefficients, times s;
    s) from one ``Layout.reduce`` on a layout of its own: the loop of
    ``algebra.divide`` before the division by s on its exit."""
    if not p.terms:
        return p, 1
    top = max((d.degree() for d in divisors), default=0)
    layout = Layout(p.ring.nvars, blocks, field_bound(blocks, p.degree(), top))
    heads = [(i, *layout.head(d)) for i, d in enumerate(divisors)]
    rem, s = layout.reduce(layout.pack_terms(p.terms), heads, spend, full)
    return Poly(p.ring, layout.unpack(rem)), s


class BlockOrder:
    """A two-block elimination order, shaped like groebner.MonomialOrder
    (``blocks``, ``key``, ``tag``): monomials in the variables of
    ``first_block`` dominate every monomial that avoids them.  The program
    only orders by grevlex and lex, but ``divide`` and Buchberger take any
    blocks, and two blocks of several variables each are their hardest case."""

    def __init__(self, ring, first_block):
        self.block = tuple(sorted(ring.index[v] for v in first_block))
        self.key = block_key(self.block)

    def blocks(self, n: int) -> tuple:
        return (self.block, tuple(i for i in range(n) if i not in self.block))

    def tag(self) -> str:
        return "block(" + ",".join(map(str, self.block)) + ")"


# Exact rational arithmetic makes single examples slow but never flaky;
# wall-clock deadlines only add noise here.
settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("fast", max_examples=10, deadline=None)
settings.register_profile(
    "thorough",
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
