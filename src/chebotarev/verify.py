"""Regression harness: every published value and bound the package checks.

Each item returns an ItemResult; run_all executes the catalog in a fixed
order with fixed seeds, so two runs produce identical output. The same
items back the CLI's ``verify-paper`` command and the acceptance test
suite.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from . import bounds as bnd
from .catalog import (
    ELEMENTARY_SWEEP,
    FRATTINI_CATALOG,
    MC_CATALOG,
    RATIO_CATALOG,
    SOLUBLE_CATALOG,
)
from .crowns import CrownData, crown_data
from .errors import TooManySievesError
from .exact import (
    DEFAULT_SIEVE_CAP,
    ChebValue,
    SieveSystem,
    build_sieves,
    chebotarev_of_group,
    decimal_string,
    elementary_abelian_cheb,
    frattini_reduce,
    invariable_gen_prob,
    omega_membership,
    v_property_sum,
)
from .groupspec import affine_group, parse_group
from .mc import mc_estimate
from .perm import PermGroup, is_klein_four, is_soluble
from .subgroups import min_generators


@dataclass
class ItemResult:
    key: str
    title: str
    passed: bool
    details: list[str] = field(default_factory=list)
    seconds: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.key}: {self.title} ({self.seconds:.2f}s)"


@dataclass
class GroupWork:
    """One group carried through the analysis pipeline, computed once.

    The CLI renders every field but the group, which the harness items read.
    """

    group: PermGroup
    exact: Optional[ChebValue]  # None when the engine refuses the family
    crowns: CrownData
    d: int
    report: bnd.BoundReport


def analyze(G: PermGroup, *, max_sieves: int = DEFAULT_SIEVE_CAP) -> GroupWork:
    """Crowns, exact C(G), d(G) and every bound verdict for one group.

    The one pipeline behind ``chebotarev bounds``, the catalog sweeps and
    ``scripts/``. C(G) is None when the reduced sieves exceed
    ``max_sieves``; the verdicts are then NOT_APPLICABLE.
    """
    crowns = crown_data(G)
    try:
        exact: Optional[ChebValue] = chebotarev_of_group(G, max_sieves=max_sieves)
    except TooManySievesError:
        exact = None
    d = min_generators(G)
    report = bnd.build_bound_report(
        order=G.order,
        soluble=is_soluble(G),
        is_klein=is_klein_four(G),
        exact=None if exact is None else exact.exact,
        A=crowns.A,
        B=crowns.B,
        d=d,
    )
    return GroupWork(group=G, exact=exact, crowns=crowns, d=d, report=report)


@functools.cache
def work_for(label: str) -> GroupWork:
    """The analysis of a catalog spec, kept per spec for the whole process."""
    return analyze(parse_group(label).group)


def _item(key: str, title: str, fn: Callable[[list[str]], bool]) -> ItemResult:
    details: list[str] = []
    start = time.perf_counter()
    try:
        passed = fn(details)
    except Exception as exc:  # a crash is a failure with the reason recorded
        details.append(f"error: {type(exc).__name__}: {exc}")
        passed = False
    return ItemResult(
        key=key,
        title=title,
        passed=passed,
        details=details,
        seconds=time.perf_counter() - start,
    )


# -- item 1: pinned exact small values -------------------------------------


def item_small_exact() -> ItemResult:
    def run(details: list[str]) -> bool:
        ok = True
        w2 = work_for("cyclic 2")
        ok &= w2.exact is not None and w2.exact.exact == 2
        details.append(f"C(C2) = {w2.exact.exact}")
        wk = work_for("elementary 2 2")
        ok &= wk.exact.exact == Fraction(10, 3)
        # ratio to sqrt(4) is exactly 5/3, checked in squared form
        ok &= 9 * wk.exact.exact**2 == 25 * 4
        details.append(f"C(C2^2) = {wk.exact.exact}, ratio 5/3 exact")
        w8 = work_for("elementary 2 3")
        expected = Fraction(8, 4) + Fraction(8, 6) + Fraction(8, 7)
        ok &= w8.exact.exact == expected == elementary_abelian_cheb(2, 3)
        ratio_sq = w8.exact.exact**2 / 8
        lo, hi = Fraction(15825, 10**4), Fraction(15827, 10**4)
        ok &= lo**2 < ratio_sq < hi**2
        details.append(
            f"C(C2^3) = {w8.exact.exact}, ratio = {decimal_string(w8.exact.exact, 6)}/sqrt(8)"
        )
        return ok

    return _item("exact-small", "pinned exact values C_2, C_2^2, C_2^3", run)


# -- item 2: elementary abelian sweep --------------------------------------


def item_elementary_sweep() -> ItemResult:
    def run(details: list[str]) -> bool:
        ok = True
        for p, d in ELEMENTARY_SWEEP:
            closed = elementary_abelian_cheb(p, d)
            # (5/3) p^(d/2) comparison in squared form; equality only (2,2)
            lhs = 9 * closed**2
            rhs = Fraction(25 * p**d)
            if (p, d) == (2, 2):
                bound_ok = lhs == rhs
            else:
                bound_ok = lhs < rhs
            sieve_count = (p**d - 1) // (p - 1)
            if sieve_count <= DEFAULT_SIEVE_CAP:
                G = affine_group(p, 1, [], power=d)  # regular representation
                value = chebotarev_of_group(G).exact
                engine_ok = value == closed
                details.append(
                    f"({p},{d}): engine {value} == closed {closed}, bound {'=' if (p, d) == (2, 2) else '<'} ok={bound_ok}"
                )
            else:
                engine_ok = True
                details.append(
                    f"({p},{d}): closed {closed} (engine skipped, {sieve_count} sieves), bound ok={bound_ok}"
                )
            ok &= bound_ok and engine_ok
        return ok

    return _item(
        "elementary-sweep",
        "elementary abelian closed form vs engine and 5/3 bound",
        run,
    )


# -- items 3, 4, 9: catalog sweeps ------------------------------------------


def item_five_thirds_catalog() -> ItemResult:
    def run(details: list[str]) -> bool:
        ok = True
        equalities = []
        for label in SOLUBLE_CATALOG:
            w = work_for(label)
            if not is_soluble(w.group) or w.exact is None:
                details.append(f"{label}: skipped (insoluble or no exact value)")
                ok = False
                continue
            if w.report.verdicts["five_thirds"] != bnd.Verdict.SATISFIED:
                ok = False
                details.append(f"{label}: VIOLATED")
            if 9 * w.exact.exact**2 == 25 * w.group.order:
                equalities.append(label)
        ok &= equalities == ["elementary 2 2"]
        details.append(
            f"{len(SOLUBLE_CATALOG)} groups; equality cases: {equalities}"
        )
        return ok

    return _item(
        "five-thirds-catalog",
        "exact C(G) < (5/3) sqrt(|G|) across the soluble catalog (Klein equality)",
        run,
    )


def item_bound_soundness() -> ItemResult:
    def run(details: list[str]) -> bool:
        ok = True
        for label in SOLUBLE_CATALOG:
            w = work_for(label)
            bad = [
                k
                for k, v in w.report.verdicts.items()
                if k in ("crown", "min_generators") and v != bnd.Verdict.SATISFIED
            ]
            if bad:
                ok = False
                details.append(f"{label}: {bad}")
        details.append(f"{len(SOLUBLE_CATALOG)} groups checked")
        return ok

    return _item(
        "bound-soundness",
        "exact C(G) <= crown bound and minimal-generator bound on the catalog",
        run,
    )


def item_v_property_decomposition() -> ItemResult:
    def run(details: list[str]) -> bool:
        ok = True
        for label in SOLUBLE_CATALOG:
            w = work_for(label)
            if w.exact is None:
                ok = False
                details.append(f"{label}: no exact value")
                continue
            total = Fraction(0)
            for V in w.crowns.A:
                total += v_property_sum(w.group, omega_membership(w.group, V))
            if w.crowns.B:
                total += max(V.delta for V in w.crowns.B)
            total += bnd.SIGMA
            if w.exact.exact > total:
                ok = False
                details.append(f"{label}: C = {w.exact.exact} > {total}")
        details.append(f"{len(SOLUBLE_CATALOG)} groups checked")
        return ok

    return _item(
        "v-property-decomposition",
        "C(G) <= sum of restricted waiting sums + central term + sigma",
        run,
    )


# -- item 5: ratio-check exceptional constructions ---------------------------


def item_ratio_cases() -> ItemResult:
    def run(details: list[str]) -> bool:
        ok = True
        for case in RATIO_CATALOG:
            w = work_for(case.spec)
            if w.exact is None or not is_soluble(w.group):
                ok = False
                details.append(f"{case.spec}: unexpected analysis failure")
                continue
            strict = 9 * w.exact.exact**2 < 25 * w.group.order
            if not strict:
                ok = False
                details.append(f"{case.spec}: C(G) not strictly below (5/3) sqrt(|G|)")
            non_central = [V for V in w.crowns.A]
            if len(non_central) != 1:
                ok = False
                details.append(f"{case.spec}: expected one non-central class")
                continue
            res = bnd.waiting_ratio_check(non_central[0], w.group.order)
            got = None if res.passes else res.exceptional_case
            if got != case.expected_case:
                ok = False
                details.append(
                    f"{case.spec}: ratio case {got}, expected {case.expected_case}"
                )
            else:
                details.append(
                    f"{case.spec}: case={got}, lambda={res.lam}, C={w.exact.exact}"
                )
        return ok

    return _item(
        "ratio-cases",
        "exceptional ratio constructions classified and still below 5/3 sqrt",
        run,
    )


# -- item 6: oracle equivalence ----------------------------------------------


def brute_force_invariable_prob(S: SieveSystem, k: int) -> Fraction:
    """Directly count the k-tuples trapped in some reduced union.

    Tuples are enumerated as class tuples weighted by class sizes; a
    tuple is trapped exactly when the AND of its class signatures is
    nonzero. Independent of the alive-mask chain: nothing is merged.
    """
    sizes = S.class_sizes
    sigs = S.class_signatures
    trapped = 0
    for combo in itertools.product(range(len(sizes)), repeat=k):
        mask = -1
        weight = 1
        for c in combo:
            mask &= sigs[c]
            weight *= sizes[c]
        if mask:
            trapped += weight
    return 1 - Fraction(trapped, S.order**k)


def item_oracle_equivalence() -> ItemResult:
    def run(details: list[str]) -> bool:
        ok = True
        count = 0
        for label in SOLUBLE_CATALOG:
            w = work_for(label)
            if w.group.order > 24:
                continue
            count += 1
            sieves = build_sieves(w.group)
            for k in range(5):
                lhs = invariable_gen_prob(sieves, k)
                rhs = brute_force_invariable_prob(sieves, k)
                if lhs != rhs:
                    ok = False
                    details.append(f"{label} k={k}: {lhs} != {rhs}")
        details.append(f"{count} groups of order <= 24, k <= 4")
        return ok and count >= 10

    return _item(
        "oracle-equivalence",
        "exact probabilities equal brute-force tuple counts",
        run,
    )


# -- item 7: Monte Carlo consistency ------------------------------------------


def item_mc_consistency() -> ItemResult:
    def run(details: list[str]) -> bool:
        ok = True
        for label in MC_CATALOG:
            w = work_for(label)
            exact = float(w.exact.exact)
            sieves = build_sieves(w.group)
            hits = 0
            for seed in range(50):
                rep = mc_estimate(sieves, 100_000, seed)
                if rep.within_sigmas(exact, 4.0):
                    hits += 1
            details.append(f"{label}: {hits}/50 runs within 4 sigma")
            if hits < 48:
                ok = False
        return ok

    return _item(
        "mc-consistency",
        "Monte Carlo means agree with exact values over 50 fixed seeds",
        run,
    )


# -- item 8: binomial tail sums -----------------------------------------------


def item_binomial_tail() -> ItemResult:
    def run(details: list[str]) -> bool:
        ok = True
        for l in range(9):
            for p in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(2, 3)):
                partial, bound, good = bnd.binomial_tail_check(l, p, 400)
                if not good:
                    ok = False
                    details.append(f"l={l} p={p}: partial {partial} > {bound}")
        partial, _, _ = bnd.binomial_tail_check(0, Fraction(1, 2), 60)
        gap = abs(partial - 2)
        ok &= gap <= Fraction(1, 10**9)
        details.append(f"l=0 p=1/2 K=60 gap to 2: {decimal_string(Fraction(gap), 3)}")
        return ok

    return _item(
        "binomial-tail",
        "binomial tail partial sums stay below 1/p (and reach it for l=0)",
        run,
    )


# -- item 10: Frattini invariance ----------------------------------------------


def item_frattini_invariance() -> ItemResult:
    def run(details: list[str]) -> bool:
        ok = True
        for label in FRATTINI_CATALOG:
            w = work_for(label)
            Q = frattini_reduce(w.group)
            reduced_value = chebotarev_of_group(Q).exact
            if w.exact.exact != reduced_value:
                ok = False
                details.append(
                    f"{label}: {w.exact.exact} != {reduced_value} after reduction"
                )
            else:
                details.append(
                    f"{label}: C = {w.exact.exact} = C(G/Phi), |G/Phi| = {Q.order}"
                )
        return ok

    return _item(
        "frattini-invariance",
        "C(G) is unchanged by quotienting out the Frattini subgroup",
        run,
    )


ALL_ITEMS: tuple[Callable[[], ItemResult], ...] = (
    item_small_exact,
    item_elementary_sweep,
    item_five_thirds_catalog,
    item_bound_soundness,
    item_ratio_cases,
    item_oracle_equivalence,
    item_mc_consistency,
    item_binomial_tail,
    item_v_property_decomposition,
    item_frattini_invariance,
)


def run_all() -> list[ItemResult]:
    return [fn() for fn in ALL_ITEMS]
