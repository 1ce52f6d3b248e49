#!/usr/bin/env python3
"""Mutation check of the test suite: each mutant is one small edit to the
program, or to an oracle in tests/ that the program is checked against,
that the tests it names must catch.

    python3 scripts/mutants.py [--only NAME ...]

For each mutant the script copies src/, tests/ and pyproject.toml to a
temporary directory, replaces the mutant's old text, which must occur exactly
once in its file, by the new text, and runs the named tests there with
pytest, stopping at the first failure.  A mutant is killed when a test
fails and survives when they all pass.  A mutant with a recorded reason to
survive is a known survivor.  The exit status is 0 when every other mutant
is killed.  Standard library only; the tests themselves need pytest and
hypothesis.

Mutation testing: DeMillo, Lipton & Sayward, IEEE Computer 11(4), 1978;
Jia & Harman, IEEE TSE 37(5), 2011.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 120  # seconds per mutant; every mutant's tests take far less

Mutant = namedtuple("Mutant", "name path old new tests why survives", defaults=(None,))

A, G, S, F = (f"src/icotk/{m}.py" for m in ("algebra", "groebner", "ico_surface", "fermat"))
PC, BF, H, C = (f"src/icotk/{m}.py" for m in ("plane_curves", "binaryforms", "heights", "cli"))
TA, TG, TS, TF = (f"tests/test_{m}.py" for m in ("algebra", "groebner", "ico_surface", "fermat"))
TP, TB, TH, TC = (f"tests/test_{m}.py" for m in ("plane_curves", "binaryforms", "heights", "cli"))
CF, TR = "src/icotk/config.py", "tests/test_records.py"
TY = "tests/test_hygiene.py"
M, TM = "src/icotk/ico_models.py", "tests/test_ico_models.py"
INT = "src/icotk/integers.py"
SO = "tests/stage2_oracle.py"

MUTANTS = [
    # -- packed-integer (Kronecker) products and substitution
    Mutant("kronecker-width-one-bit-short", A,
           "width = (bound.bit_length() + 8) // 8",
           "width = (bound.bit_length() + 7) // 8",
           (f"{TA}::test_packed_kernel_edge_cases",
            f"{TA}::test_packed_product_equals_the_generic_product"),
           "a digit must hold the bound's bits and a sign bit"),
    Mutant("unpack-without-half-digit-offset", A,
           'offset = int.from_bytes((bytes(width - 1) + b"\\x80") * count, "little")',
           "offset = 0",
           (f"{TA}::test_packed_kernel_edge_cases",),
           "negative digits borrow from the next one without the offset"),
    Mutant("zero-image-leaves-the-packed-path", A,
           "degrees = {_form_degree(im) for im in images if im.terms}",
           "degrees = {_form_degree(im) for im in images}",
           (f"{TA}::test_generic_path_inputs",),
           "a zero image packs as the integer 0, as on the line x = 0 of stage 2"),
    Mutant("exponent-allows-negative-entries", A,
           "any(type(k) is not int or k < 0 for k in expo)",
           "any(type(k) is not int for k in expo)",
           (f"{TA}::test_an_exponent_must_fit_the_ring",),
           "x*y^-1 is no monomial"),
    # -- packed division
    Mutant("field-bound-without-moves", A,
           "d = deg + top * moves",
           "d = deg",
           (f"{TA}::test_lex_growth_chains", f"{TA}::test_rabinowitsch_shaped_division"),
           "a lower block's degree grows by top for each move of the blocks above"),
    Mutant("layout-without-bias", A,
           "            self.bias += M << at\n",
           "",
           (f"{TA}::test_packed_division_at_the_width_edges",
            f"{TA}::test_packed_division_equals_the_tuple_path"),
           "without the bias a divisibility test borrows between blocks"),
    Mutant("guard-mask-skips-the-lowest-field", A,
           "self.guards += 1 << (at + bits)",
           "self.guards += 1 << (at + bits) if at else 0",
           (f"{TA}::test_packed_division_at_the_width_edges",),
           "a negative difference in the lowest field must show in its guard bit"),
    Mutant("scaled-division-leaves-done-unscaled", A,
           "                done = {k: v * mult for k, v in done.items()}\n",
           "",
           (f"{TA}::test_scaled_division_scales_what_is_done_and_what_is_left",),
           "a scaled division multiplies what is done as well as what is left"),
    Mutant("reduce-leaves-quotients-unscaled", A,
           "quots[:] = [{k: v * mult for k, v in q.items()} for q in quots]",
           "pass",
           (f"{TA}::test_packed_division_equals_the_tuple_path",
            f"{TA}::test_division_reduces_over_the_integers_only"),
           "a scaling step multiplies the quotients kept so far as well"),
    Mutant("reduce-forgets-the-scale", A,
           "                s *= mult\n",
           "",
           (f"{TA}::test_scaled_division_scales_what_is_done_and_what_is_left",
            f"{TA}::test_exact_division_across_contents"),
           "divide divides the result by the product of every scaling step"),
    Mutant("divide-skips-the-rescale", A,
           "* Fraction(1, s * dp)\n"
           "    return ([Poly(p.ring, layout.unpack(q)) * Fraction(dd, s * dp)",
           "\n    return ([Poly(p.ring, layout.unpack(q)) * dd",
           (f"{TA}::test_scaled_division_scales_what_is_done_and_what_is_left",
            f"{TA}::test_exact_division_across_contents"),
           "divide's result over Q is the loop's over Z divided by s and the denominators"),
    # -- Buchberger and Hilbert data
    Mutant("never-widen", G,
           "if layout is None or bound > layout.M:",
           "if layout is None:",
           (f"{TG}::test_the_run_widens_its_layout_and_repacks",),
           "a run whose S-polynomials outgrow the layout must repack on a wider one"),
    Mutant("expansion-without-sign", G,
           "(-1) ** j * sum(c * comb(k, j) for k, c in num.items())",
           "sum(c * comb(k, j) for k, c in num.items())",
           (f"{TG}::test_the_expansion_at_one_equals_pole_cancellation",),
           "N(t) = sum a_j (1-t)^j needs a_j = (-1)^j sum c_k C(k, j)"),
    Mutant("first-nonzero-searched-from-one", G,
           "enumerate(expansion) if a",
           "enumerate(expansion[1:], 1) if a",
           (f"{TG}::test_the_expansion_at_one_equals_pole_cancellation",),
           "the zero ideal has a_0 = 1 and Krull dimension n"),
    Mutant("genus-reads-one-term-too-many", G,
           "data.expansion[data.nvars - data.krull_dim:data.nvars]",
           "data.expansion[data.nvars - data.krull_dim - 1:data.nvars]",
           (f"{TG}::test_curve_section_genus",),
           "P(0) sums a_j over j0 <= j < n; on P1, j0 = 0 and the slice from -1 is empty"),
    Mutant("hilbert-pivot-on-the-least-exponent", G,
           "p = exps[(len(exps) - 1) // 2]",
           "p = exps[0]",
           (f"{TG}::test_the_median_pivot_keeps_the_hilbert_recursion_shallow",),
           "the least exponent peels one power per level and recurses N deep on (x0, x1)^N"),
    # -- the A_n bases
    Mutant("dependent-pure-power-accepted", M,
           "        elif expo in pure:\n"
           "            raise IcotkError(f\"pure powers are dependent in A_{n}\")\n",
           "",
           (f"{TM}::test_basis_pure_power_relation_is_detected",),
           "a pure power of the basis is checked, not assumed, to be independent"),
    Mutant("phi-divides-by-twelve", M,
           "(z + 4) // 24",
           "(z + 4) // 12",
           (f"{TM}::test_genus_phi_sum_closed_forms",),
           "phi(z) = C(z + 4, 4), the product of four consecutive integers over 4!"),
    # -- points
    Mutant("proj-point-keeps-a-negative-lead", INT,
           "            g = -g\n",
           "            pass\n",
           (f"{TS}::test_proj_point_normalization",
            f"{TS}::test_proj_point_matches_the_list_oracle"),
           "the first nonzero coordinate of a point is positive"),
    Mutant("proj-point-truncates-floats", INT,
           "elif not isinstance(c, int):",
           "elif not isinstance(c, (int, float)):",
           (f"{TS}::test_proj_point_rejects_other_coordinate_types",),
           "a float coordinate is refused, never truncated"),
    Mutant("proj-point-keeps-int-subclasses", INT,
           "if set(map(type, t)) != {int}:",
           "if not all(isinstance(c, int) for c in t):",
           (f"{TS}::test_proj_point_matches_the_list_oracle",),
           "bools and other int subclasses become ints"),
    Mutant("no-first-bracket-check", S,
           "if tau[1] + tau[3] != -(self.t_sum * t[0] * t[2] * (t[1] + t[3])):",
           "if False:",
           (f"{TS}::test_perturbed_cubic_fails_the_build",),
           "the geometry checks the first bracket identity when it is built"),
    Mutant("no-quintic-identity-check", S,
           "if Poly.variable(P2, \"y\") * self.v != t[0] * self.t_sum:",
           "if False:",
           (f"{TS}::test_perturbed_quintic_fails_the_quintic_identity",),
           "the geometry checks y*v == t0*sum(t), which lets C_tau leave v out"),
    Mutant("ctau-factors-without-the-cubic-sum", S,
           "self._ctau_factors = (x, z, lin0, q0, q2, q3, t[1], self.t_sum)",
           "self._ctau_factors = (x, z, lin0, q0, q2, q3, t[1])",
           (f"{TP}::test_stage2_verdicts_pinned",),
           "V(sum t) is part of C_tau: the line y of the corpus fails by dividing it"),
    Mutant("phi-equality-ignores-phi-part", A,
           "return self.a == other.a and self.b == other.b",
           "return self.a == other.a",
           (f"{TB}::test_phi_equality_compares_both_parts",),
           "a + b*phi equals c + d*phi only when b = d"),
    # -- the surface scan
    Mutant("scan-rechecks-only-the-first-point", F,
           "    for c in coords:\n        if _sigma24(c) != (0, 0):",
           "    for c in coords[:1]:\n        if _sigma24(c) != (0, 0):",
           (f"{TF}::test_scan_rechecks_every_point_on_the_surface",),
           "the expansion every scan shares checks each point it builds on the surface"),
    Mutant("expand-drops-the-negated-orbit", F,
           "        signed = itertools.chain(itertools.permutations(u),\n"
           "                                 itertools.permutations(tuple(map(int.__neg__, u))))\n",
           "        signed = itertools.permutations(u)\n",
           (f"{TF}::test_scan_b1_is_the_coordinate_points",),
           "the points of an orbit are the permutations of u and of -u above 0^5; "
           "u = (-1, 0, 0, 0, 0) has none of its points among its own permutations"),
    Mutant("expand-keeps-both-signs", F,
           "coords += set(filter((0, 0, 0, 0, 0).__lt__, signed))",
           "coords += set(signed)",
           (f"{TF}::test_scan_b1_is_the_coordinate_points",),
           "a point is p or -p, whichever compares above 0^5; keeping both "
           "reports each point twice"),
    Mutant("z-scan-orbit-filter-not-invariant", F,
           "return any(abs(c) > 1 for c in orbit) and z_member(orbit)",
           "return orbit[-1] > 1 and z_member(orbit)",
           (f"{TF}::test_the_z_orbit_filter_is_the_point_filter",),
           "an orbit filter must give one answer on every point of the orbit; "
           "the canonical tuple's last entry can be 1 on a nontrivial orbit"),
    Mutant("instance-filter-tests-only-the-orbit-tuple", F,
           "points = _expand(_orbits(B), lambda t: inst.lhs(t) == 0)",
           "points = _expand(o for o in _orbits(B) if inst.lhs(o) == 0)",
           (f"{TF}::test_scan_instance_split",),
           "the instance equation is not symmetric: each permutation is tested"),
    Mutant("orbit-without-negation", F,
           "return min(up, tuple(map(int.__neg__, reversed(up))))",
           "return up",
           (f"{TF}::test_orbit_is_one_tuple_per_orbit",),
           "t and -t are one orbit"),
    Mutant("orbit-without-gcd", F,
           "up = tuple(sorted(c // g for c in t5))",
           "up = tuple(sorted(t5))",
           (f"{TF}::test_orbit_is_one_tuple_per_orbit",),
           "t and k*t are one orbit"),
    Mutant("window-a-cubed", F,
           "_signed_divisors(x, 4)",
           "_signed_divisors(x, 3)",
           (f"{TF}::test_scan_b30_is_pinned", f"{TF}::test_scan_b200_is_pinned",
            f"{TF}::test_divisor_scan_finds_every_orbit_of_the_triple_loop"),
           "the scan's windows are (a+b) | a^4",
           "every hit with D != 0 up to B = 500 also meets (a+b) | a^3, so the "
           "scanned points do not change; unproved, so the scan keeps a^4 (only "
           "test_window_is_the_divisor_condition, which restates the condition, fails)"),
    Mutant("scan-mirror-cut-on-a-plus-b", F,
           "        for i, b in enumerate(win):\n"
           "            for c in win[max(i, cut):] if a else _window(b, B):",
           "        for i, b in enumerate(win[cut:], cut):\n"
           "            for c in win[i:] if a else _window(b, B):",
           (f"{TF}::test_divisor_scan_finds_every_orbit_of_the_triple_loop",),
           "the mirror cut skips a + c < 0; skipping a + b < 0 instead keeps the "
           "union up to B = 200, but not each a's orbits"),
    Mutant("scan-drops-triples-with-a-common-factor", F,
           "if math.gcd(a, b, c, x3, x4) == 1:",
           "if math.gcd(a, b, c) == 1:",
           (f"{TF}::test_scan_b200_is_pinned",
            f"{TF}::test_a_triple_with_a_common_factor_can_complete_to_a_primitive_point"),
           "a triple with gcd > 1 can complete to a primitive point"),
    # -- criterion (tau)
    Mutant("stage2-misses-a-common-component", PC,
           "if any(R.is_zero() for R in images):",
           "if False:",
           (f"{TP}::test_stage2_names_a_common_component",
            f"{TP}::test_the_lines_through_two_ttau_points_fail_at_stage_1"),
           "F vanishing on a component's parametrization means a common component, "
           "named as such"),
    Mutant("share-tested-on-the-first-component-only", PC,
           "if any(R.is_zero() for R in images):",
           "if images[0].is_zero():",
           (f"{TP}::test_each_component_of_ctau_fails",
            f"{TP}::test_stage2_agrees_with_the_resultant_oracle"),
           "F may vanish on the second component of a factor alone, as "
           "x^2 + y*z - z^2 does on that of sum t"),
    Mutant("share-tested-after-stripping", PC,
           "        if any(R.is_zero() for R in images):\n"
           "            return f\"V(F) and V({g}) share a component\"\n"
           "        for R, (_, roots) in zip(images, parts):\n"
           "            rem = _coefficients(R, R.degree())\n"
           "            for r in roots:\n"
           "                rem = strip_root(rem, r)\n"
           "            if len(rem) > 1:\n"
           "                return f\"V(F) meets V({g}) at a point off T_tau\"\n",
           "        for R, (_, roots) in zip(images, parts):\n"
           "            rem = _coefficients(R, R.degree())\n"
           "            for r in roots:\n"
           "                rem = strip_root(rem, r)\n"
           "            if len(rem) > 1:\n"
           "                return f\"V(F) meets V({g}) at a point off T_tau\"\n"
           "        if any(R.is_zero() for R in images):\n"
           "            return f\"V(F) and V({g}) share a component\"\n",
           (f"{TP}::test_stage2_names_a_common_component",),
           "a shared component is named before any component is stripped: (x - z)^2 "
           "also meets the conic of t1 at (2:1:2)"),
    Mutant("factor-checked-on-its-first-component-only", PC,
           "tuple(_parametrize(geo, C) for C in parts)",
           "tuple(_parametrize(geo, C) for C in parts[:1])",
           (f"{TP}::test_each_factor_is_the_product_of_its_parametrized_components",
            f"{TP}::test_stage2_agrees_with_the_resultant_oracle"),
           "q3, t1 and sum t have two components each, and X may meet either"),
    Mutant("conic-drops-the-pair-quadratic", PC,
           "if C.evaluate(quad.coords) == 0:",
           "if C.degree() == 1 and C.evaluate(quad.coords) == 0:",
           (f"{TP}::test_family_pullbacks_satisfy",
            f"{TP}::test_stage2_agrees_with_the_resultant_oracle"),
           "the conjugate pair lies on q0, q2 and the conics of t1 and sum t too"),
    Mutant("pair-quadratic-middle-sign", PC,
           "2 * u.a + u.b",
           "-(2 * u.a + u.b)",
           (f"{TP}::test_family_pullbacks_satisfy",),
           "the middle coefficient of (l0 s + l1 t)(l0' s + l1' t) is Tr(l0 l1')"),
    # -- the resultant stage 2, now the oracle of the program's: its own tests pin it
    Mutant("only-the-first-transform", SO,
           "if F.evaluate(kept[i].center) != 0:",
           "if True:",
           (f"{TP}::test_kept_transforms_equal_the_per_curve_search",),
           "a transform whose center lies on the curve is passed over"),
    Mutant("horner-without-the-power-of-z", SO,
           "acc = acc * y + c * zi",
           "acc = acc * y + c",
           (f"{TP}::test_horner_on_x_coefficients_equals_evaluate",),
           "sum c_i y^(n-i) z^i needs the power of z"),
    Mutant("fiber-check-skips-the-quadratic-point", SO,
           "fibers = [_fiber(fc, q) for q in move.moved[:-1]]",
           "fibers = [_fiber(fc, q) for q in move.moved[:-2]]",
           (f"{TP}::test_stage2_fails_on_the_fiber_of_the_conjugate_pair",),
           "the fiber line of the conjugate pair is checked too"),
    Mutant("transform-images-from-the-rows-of-U", SO,
           "images = tuple(x * a + y * b + z * c for a, b, c in A)",
           "images = tuple(x * a + y * b + z * c for a, b, c in U)",
           (f"{TP}::test_kept_transforms_equal_the_per_curve_search",),
           "a form moves by v = A*w: its images are the rows of A, not of U = A^-1"),
    Mutant("unitriangular-inverse-corner-sign", SO,
           "l10 * l21 - l20",
           "l20 - l10 * l21",
           (f"{TP}::test_kept_transforms_equal_the_per_curve_search",),
           "the corner of the inverse of [[1,0,0],[a,1,0],[b,c,1]] is ac - b"),
    Mutant("stage2-keeps-the-pair-projection", SO,
           "(*lines, _pair_quadratic(moved[-2]))",
           "tuple(lines)",
           (f"{TP}::test_the_conjugate_fiber_check_agrees",
            f"{TP}::test_stage2_agrees_with_the_resultant_oracle"),
           "the conjugate pair's projections are stripped before the verdict"),
    Mutant("remainder-rows-weights-one-power-high", SO,
           "        weights.append(c * scale)\n        scale *= lc\n",
           "        scale *= lc\n        weights.append(c * scale)\n",
           (f"{TB}::test_remainder_resultant_equals_the_prs",
            f"{TB}::test_remainder_resultant_on_the_corner_cases",
            f"{TP}::test_resultants_from_the_remainder_rows_equal_the_prs"),
           "f[i] meets its row with lc^i for i < s, so prem(f, g) = lc^s (f mod g)"),
    # -- stage 3 of criterion (tau)
    Mutant("stage3-never-refuses-early", PC,
           "hopeless = -(-curve.degree // 12) > max_image_degree",
           "hopeless = False",
           (f"{TP}::test_stage3_refuses_before_any_piece_when_no_witness_can_exist",),
           "no J_m below ceil(deg F / 12) holds a witness, so none is built"),
    Mutant("stage3-refuses-at-the-first-possible-degree", PC,
           "hopeless = -(-curve.degree // 12) > max_image_degree",
           "hopeless = -(-curve.degree // 12) >= max_image_degree",
           (f"{TP}::test_a_degree_12_curve_finds_its_witnesses_in_degree_1",),
           "a witness can lie in J_m once 12m >= deg F"),
    # -- resultants and interpolation
    Mutant("prs-without-the-odd-degree-sign", BF,
           "    while True:\n"
           "        if len(a) % 2 == 0 and len(b) % 2 == 0:\n            sign = -sign\n",
           "    while True:\n",
           (f"{TB}::test_subresultant_prs_equals_the_sylvester_determinant",),
           "each step with both degrees odd flips the resultant's sign"),
    Mutant("prs-skips-the-first-sign-flip", BF,
           "    h = 1\n    while True:\n",
           "    h = 1\n    if len(a) % 2 == 0 and len(b) % 2 == 0:\n"
           "        sign = -sign  # undoes the loop's first flip\n    while True:\n",
           (f"{TB}::test_subresultant_prs_equals_the_sylvester_determinant",
            f"{TB}::test_remainder_resultant_equals_the_prs"),
           "the step from the given first remainder flips the sign like every other"),
    Mutant("prs-linear-exit-without-the-sign", BF,
           "return sign * _exact(b[0], 1)",
           "return _exact(b[0], 1)",
           (f"{TB}::test_subresultant_prs_equals_the_sylvester_determinant",
            f"{TB}::test_remainder_resultant_equals_the_prs"),
           "the exit at deg A = 1 keeps the signs of the steps before it"),
    Mutant("prs-linear-exit-without-the-exact-check", BF,
           "return sign * _exact(b[0], 1)",
           "return sign * b[0]",
           (f"{TB}::test_resultant_refuses_a_fraction_input",),
           "a Fraction input is refused at the last step too, never returned"),
    Mutant("prs-scale-without-the-lead", BF,
           "scale = lc * h ** (len(a) - len(b))",
           "scale = h ** (len(a) - len(b))",
           (f"{TB}::test_subresultant_prs_equals_the_sylvester_determinant",),
           "each later remainder is divided by g*h^delta, g the new A's lead"),
    Mutant("prem-entering-coefficient-unscaled", BF,
           "zip(r[1:] + [x * scale], tail)",
           "zip(r[1:] + [x], tail)",
           (f"{TB}::test_windowed_pseudo_remainder_equals_the_rescaling_loop",
            f"{TB}::test_pseudo_remainder_scales_the_remainder"),
           "a coefficient entering the window at step i carries lc^i"),
    Mutant("interpolate-without-remainder-check", BF,
           "        if r:\n            return None\n        out.append(q)",
           "        out.append(q)",
           (f"{TB}::test_interpolation_fractional_result",),
           "a coefficient outside Z is refused, never floored"),
    # -- root stripping
    Mutant("strip-ignores-the-remainder-form", BF,
           "        if any(r[n:]):\n            return cur\n",
           "",
           (f"{TB}::test_strip_root_stops_at_a_remainder",
            f"{TB}::test_strip_root_leaves_the_oracles_degree_and_divides_exactly"),
           "exact quotient coefficients alone do not make g divide f"),
    Mutant("strip-lets-a-zero-lead-through", BF,
           '        raise ValueError("strip_root needs g[0] != 0 unless g is +-t")\n',
           "",
           (f"{TB}::test_strip_root_multiplicity", f"{TB}::test_strip_root_stops_at_a_remainder"),
           "a g with g[0] = 0 other than +-t is refused, never divided by zero"),
    Mutant("strip-by-t-without-the-sign", BF,
           "return [-c for c in f[z:]] if g[1] == -1 and z % 2 else list(f[z:])",
           "return list(f[z:])",
           (f"{TB}::test_strip_root_by_t_slices_as_the_long_division_divides",),
           "dividing by (-t)^z flips the sign when z is odd"),
    Mutant("strip-treats-every-lead-as-monic", BF,
           "if g[0] != 1:  # a monic g needs no division",
           "if False:",
           (f"{TB}::test_strip_root_leaves_the_oracles_degree_and_divides_exactly",),
           "only a leading coefficient 1 lets the quotient skip the division"),
    # -- heights
    Mutant("logarithms-unwidened", H,
           "            ln10_lo, ln10_hi = down.next_minus(ln10), up.next_plus(ln10)\n"
           "        for m, c in self.terms:\n"
           "            ln_m = down.ln(m)\n"
           "            l_lo = down.divide(down.next_minus(ln_m), ln10_hi)  # log10(m) > 0\n"
           "            l_hi = up.divide(up.next_plus(ln_m), ln10_lo)\n",
           "            ln10_lo, ln10_hi = ln10, ln10\n"
           "        for m, c in self.terms:\n"
           "            ln_m = down.ln(m)\n"
           "            l_lo = down.divide(ln_m, ln10_hi)  # log10(m) > 0\n"
           "            l_hi = up.divide(ln_m, ln10_lo)\n",
           (f"{TH}::test_interval_encloses_the_value",
            f"{TH}::test_interval_of_log10_3_encloses_it"),
           "Decimal.ln rounds half-even, so each logarithm is widened by an ulp"),
    Mutant("logarithm-of-ten-unwidened", H,
           "ln10_lo, ln10_hi = down.next_minus(ln10), up.next_plus(ln10)",
           "ln10_lo, ln10_hi = ln10, ln10",
           (f"{TH}::test_interval_widens_the_logarithm_of_ten",),
           "ln(10) rounds half-even too, so it is widened by an ulp on its own"),
    Mutant("logarithm-of-m-unwidened", H,
           "l_lo = down.divide(down.next_minus(ln_m), ln10_hi)  # log10(m) > 0\n"
           "            l_hi = up.divide(up.next_plus(ln_m), ln10_lo)\n",
           "l_lo = down.divide(ln_m, ln10_hi)  # log10(m) > 0\n"
           "            l_hi = up.divide(ln_m, ln10_lo)\n",
           (f"{TH}::test_interval_widens_the_logarithm_of_m",),
           "ln(m) rounds half-even too, so it is widened by an ulp on its own"),
    Mutant("zero-height-read-as-positive", H,
           "    if mant == 0:\n        return None\n",
           "",
           (f"{TH}::test_thmC_zero_height_in_every_spelling_is_exact",),
           "h(X) = 0 in any spelling, 0e5 too, keeps the bound exact"),
    Mutant("zero-height-skips-the-exponent", H,
           "    exp = int(exp_s) if e else 0  # read first: \"0eabc\" is no zero\n"
           "    if mant == 0:\n        return None\n",
           "    if mant == 0:\n        return None\n"
           "    exp = int(exp_s) if e else 0\n",
           (f"{TC}::test_thmC_reads_the_exponent_of_a_zero_height",),
           "junk after e is an input error also when the mantissa is zero"),
    Mutant("certificate-without-tag-check", H,
           "        if tag not in TAGS:\n"
           "            raise ValueError(f\"unknown certificate tag {tag!r}\")\n",
           "",
           (f"{TR}::test_height_certificate_checks_its_tag",),
           "a certificate carries one of the known tags"),
    # -- value records
    Mutant("record-without-slots", CF,
           'never mis-answers."""\n\n    __slots__ = ()\n',
           'never mis-answers."""\n',
           (f"{TR}::test_records_are_immutable_values",),
           "without __slots__ = () a record takes attributes beyond its fields"),
    Mutant("render-without-the-digit-limit", CF,
           "if limit and digits + 1 > limit:",
           "if False:",
           (f"{TH}::test_render_refuses_more_digits_than_an_int_prints",),
           "--digits above the int string limit is refused before the work"),
    # -- the command line
    Mutant("emit-leaves-the-flush-to-exit", C,
           "        sys.stdout.flush()\n",
           "",
           (f"{TC}::test_a_closed_stdout_keeps_the_exit_code",),
           "a broken pipe met by the flush at exit prints a warning and exits 120"),
    Mutant("internal-error-exits-one", C,
           'provenance, code = ["internal-error"], 4',
           'provenance, code = ["internal-error"], 1',
           (f"{TC}::test_internal_error_gets_its_own_exit_code",),
           "exit 1 is a negative verdict, never a crash"),
    Mutant("internal-error-without-traceback", C,
           "        traceback.print_exc(file=sys.stderr)\n",
           "",
           (f"{TC}::test_internal_error_gets_its_own_exit_code",),
           "a bug's report comes with its traceback on stderr"),
    Mutant("cli-binds-a-name-at-import", C,
           'SCHEMA = "icotk-report/1"\n',
           'SCHEMA = "icotk-report/1"\ncheck_tau = plane_curves.check_tau\n',
           (f"{TY}::test_a_cold_light_command_runs_only_the_modules_it_reaches",),
           "a name bound at import runs its module in every command"),
    Mutant("cli-export-not-kept", C,
           "value = globals()[name] = getattr(package, name)",
           "value = getattr(package, name)",
           (f"{TY}::test_the_cli_reads_the_package_exports_on_first_access",
            f"{TY}::test_the_tracer_installs_after_a_cold_import_of_the_cli"),
           "the tracer patches and restores icotk.cli.check_tau as a module attribute"),
]


def _run(mutant, workdir: Path) -> str:
    """'killed', 'survived' or 'error' (pytest could not run the tests, or
    ran past TIMEOUT seconds)."""
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, workdir / part)
    shutil.copy(ROOT / "pyproject.toml", workdir)
    target = workdir / mutant.path
    text = target.read_text()
    if text.count(mutant.old) != 1:
        return "error"
    target.write_text(text.replace(mutant.old, mutant.new))
    env = {**os.environ, "PYTHONPATH": str(workdir / "src")}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
            cwd=workdir, env=env, capture_output=True, text=True, timeout=TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return "error"
    return {0: "survived", 1: "killed"}.get(proc.returncode, "error")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", nargs="+", metavar="NAME", help="run these mutants only")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if not args.only or m.name in args.only]
    bad, t0 = 0, time.perf_counter()
    for m in chosen:
        t1 = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            outcome = _run(m, Path(tmp))
        note = None if outcome == "killed" else m.why
        if outcome == "survived" and m.survives:
            outcome, note = "survived (known)", m.survives
        else:
            bad += outcome != "killed"
        print(f"{outcome:17} {m.name:40} {time.perf_counter() - t1:6.1f} s", flush=True)
        if note:
            print(f"{'':17} {note}")
    print(f"{len(chosen)} mutants, {bad} not killed, {time.perf_counter() - t0:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
