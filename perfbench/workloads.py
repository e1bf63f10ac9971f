"""The benchmark's three workloads: seeded inputs, op sequences and oracles.

Every workload's ``build(seed, workdir, small)`` returns a list of ``Op``s.
Each op makes one public decision call into troplin (the CLI round trip
counts as one op: ``bergman`` then ``recognize`` on its output) and checks
the result against an answer known independently of the recognizer: the
source matroid, its flats, the valuation a complex was built from, or the
rejection reason a mutant must produce.  An op's call returns ``None`` when
the verdict matches and a short description of the mismatch otherwise.

``Op.prepare()`` builds the op's inputs afresh and returns the call to time.
troplin caches H-representations and circuit valuations on its objects, so
a call on objects an earlier call has used would measure a warm cache no
user of a freshly read input sees.  Fresh inputs for every call also keep
the ops of one complex independent of the order they run in.

The seed changes the inputs and little of their cost: matroids are
seeded members of fixed isomorphism classes or relabelled by seeded
permutations and visited in seeded order, JSON basis lists are shuffled,
tree leaves are relabelled, and translation vectors are seeded permutations
of fixed vectors.  Relabelling the ground set gives an isomorphic input, so
the same work up to the order of equal steps, though that order can move
one op's time by a third.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path
from typing import Callable

from troplin import cli, recognize, valuated
from troplin import io as tio
from troplin.complexes import Cell, WeightedComplex, chain_fan, to_quotient
from troplin.matroids import ChainFamily, Matroid, enumerate_matroids
from troplin.points import TropPoint
from troplin.recognize import RecognitionReport
from troplin.valuated import ValuatedMatroid

Check = Callable[[], "str | None"]


@dataclass
class Op:
    label: str
    prepare: Callable[[], Check]  # builds fresh inputs, returns the call to time
    input: object  # JSON text, a Matroid, or a Recipe


# -- shared input helpers -----------------------------------------------------


def uniform(rank: int, n: int) -> Matroid:
    return Matroid(n, combinations(range(1, n + 1), rank))


def relabel(m: Matroid, rng: random.Random) -> Matroid:
    images = list(range(1, m.n + 1))
    rng.shuffle(images)
    return Matroid(m.n, [[images[i - 1] for i in b] for b in m.bases])


def small_matroids(max_n: int) -> list[Matroid]:
    return [m for n in range(1, max_n + 1) for m in enumerate_matroids(n)]


def isomorphism_classes(matroids: list[Matroid]) -> list[list[Matroid]]:
    """Group matroids by isomorphism, in a fixed order.

    Isomorphic matroids have identical fans up to relabelling, so every op
    on them costs the same; drawing members of a class changes the inputs
    without changing their cost.  Brute force over permutations is cheap
    for n <= 5.
    """
    classes: dict[tuple, list[Matroid]] = {}
    for m in matroids:
        key = min(
            tuple(sorted(tuple(sorted(p[i - 1] for i in b)) for b in m.bases))
            for p in permutations(range(1, m.n + 1))
        )
        classes.setdefault((m.n, key), []).append(m)
    return [classes[k] for k in sorted(classes)]


def flat_family(m: Matroid) -> ChainFamily:
    return ChainFamily(m.n, m.flats | {m.ground})


def expected_flats(m: Matroid) -> frozenset:
    """Nonempty flats plus the ground set: what flat recovery must return."""
    return frozenset(f for f in m.flats if f) | {m.ground}


def check_accepted(report: RecognitionReport, m: Matroid) -> str | None:
    if not report.accepted:
        return f"rejected: {report.reason}"
    if report.matroid != m:
        return "recovered matroid differs from the source"
    if frozenset(report.flats) != expected_flats(m):
        return "recovered flats differ from the source"
    if report.multiplier != 1:
        return f"multiplier {report.multiplier}"
    return None


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = _stdio.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


# -- cli_roundtrip --------------------------------------------------------------


def _report_text(m: Matroid) -> str:
    """The exact stdout `recognize` must print for the Bergman fan of m."""
    flats = sorted(expected_flats(m), key=lambda s: (len(s), sorted(s)))
    report = RecognitionReport("accepted", matroid=m, flats=tuple(flats))
    return tio.dumps(tio.report_to_json(report)) + "\n"


def _roundtrip_op(m: Matroid, matroid_path: Path, fan_path: Path) -> Op:
    fan_text = tio.dumps(tio.complex_to_json(chain_fan(flat_family(m)))) + "\n"
    report_text = _report_text(m)

    def run() -> str | None:
        code, text = _run_cli(["bergman", str(matroid_path)])
        if code != 0:
            return f"bergman exit {code}"
        if text != fan_text:
            return "bergman stdout differs from the expected bytes"
        fan_path.write_text(text, encoding="utf-8")
        code, text = _run_cli(["recognize", str(fan_path)])
        if code != 0:
            return f"recognize exit {code}"
        if text != report_text:
            data = json.loads(text)
            if tio.matroid_from_json(data["matroid"]) != m:
                return "recovered matroid differs from the source"
            return "recognize stdout differs from the expected bytes"
        return None

    # the CLI reads its input from disk on every call, so nothing is reused
    return Op(f"roundtrip n={m.n} r={m.rank}", lambda: run, matroid_path.read_text(encoding="utf-8"))


def build_cli_roundtrip(seed: int, workdir: Path, small: bool) -> list[Op]:
    """One seeded member of every isomorphism class of loopfree matroids
    with n <= 5, and U(3,6).

    Isomorphic matroids cost the same, so one member per class keeps every
    cost of the 221 matroids in a pass short enough to repeat many times in
    a run.  U(5,5) and U(4,6) are left out: one round trip of either takes
    4-6 s, so a run could time it only a few times.
    """
    rng = random.Random(f"cli_roundtrip:{seed}")
    sources = [
        rng.choice(cls)
        for cls in isomorphism_classes(small_matroids(3 if small else 5))
        if small or cls[0] != uniform(5, 5)
    ]
    sources += [uniform(2, 4)] if small else [uniform(3, 6)]
    rng.shuffle(sources)
    ops = []
    for idx, m in enumerate(sources):
        bases = [sorted(b) for b in m.bases]
        rng.shuffle(bases)
        matroid_path = workdir / f"matroid-{idx}.json"
        matroid_path.write_text(json.dumps({"n": m.n, "bases": bases}), encoding="utf-8")
        ops.append(_roundtrip_op(m, matroid_path, workdir / f"fan-{idx}.json"))
    return ops


# -- memory_fans ----------------------------------------------------------------


def _memory_op(m: Matroid) -> Op:
    def prepare() -> Check:
        fan = chain_fan(flat_family(m))
        return lambda: check_accepted(recognize.recognize_fan(fan), m)

    return Op(f"recognize_fan n={m.n} r={m.rank}", prepare, m)


def build_memory_fans(seed: int, workdir: Path, small: bool) -> list[Op]:
    """Chain-tagged Bergman fans of one seeded member of every isomorphism
    class of loopfree matroids with n <= 5, and of U(3,6) and U(4,6).

    U(5,6) and U(6,6) are left out: one call takes 1.5 s and 6 s, so a run
    could time them only a few times.
    """
    rng = random.Random(f"memory_fans:{seed}")
    sources = [rng.choice(cls) for cls in isomorphism_classes(small_matroids(3 if small else 5))]
    sources += [uniform(r, 4) for r in (2, 3)] if small else [uniform(3, 6), uniform(4, 6)]
    matroids = [relabel(m, rng) for m in sources]
    rng.shuffle(matroids)
    return [_memory_op(m) for m in matroids]


# -- valuated_complexes -----------------------------------------------------------


@dataclass
class Case:
    """A complex with the valuated matroid it was built from."""

    label: str
    valuated: ValuatedMatroid
    complex_: WeightedComplex


def tree_line(n: int, labels: list[int]) -> Case:
    """Tropical line of a fixed random binary tree with leaves named ``labels``.

    The tree's shape depends on n alone; the seed only renames its leaves.
    The valuation is p_ij = -depth(lca(i, j)) on the bases of U(2, n).
    Internal node v sits at x_i = -depth(lca(v, i)); the parent edges are
    segments and every leaf hangs off its parent as the ray -e_i.
    """
    shape = random.Random(f"tree shape:{n}")
    parent: dict[frozenset, frozenset | None] = {}
    children: dict[frozenset, tuple[frozenset, frozenset]] = {}
    clusters = [frozenset({label}) for label in labels]
    while len(clusters) > 1:
        a = clusters.pop(shape.randrange(len(clusters)))
        b = clusters.pop(shape.randrange(len(clusters)))
        merged = a | b
        children[merged] = (a, b)
        parent[a] = parent[b] = merged
        clusters.append(merged)
    root = clusters[0]
    parent[root] = None
    depth = {root: 0}
    order = [root]
    for node in order:
        for child in children.get(node, ()):
            depth[child] = depth[node] + 1
            order.append(child)

    def lca_depth(node: frozenset, leaf: int) -> int:
        while leaf not in node:
            node = parent[node]
        return depth[node]

    weights = {
        frozenset((i, j)): Fraction(-lca_depth(frozenset({i}), j))
        for i, j in combinations(range(1, n + 1), 2)
    }
    position = {
        v: TropPoint([-lca_depth(v, i) for i in range(1, n + 1)]) for v in children
    }
    cells = []
    for v in order:
        if v not in children:
            continue
        if parent[v] is not None:
            cells.append(Cell.from_torus(n, [position[parent[v]], position[v]]))
        for child in children[v]:
            if len(child) == 1:
                (leaf,) = child
                ray = [0] * n
                ray[leaf - 1] = -1
                cells.append(Cell.from_torus(n, [position[v]], rays=[ray]))
    return Case(
        f"tree n={n}",
        ValuatedMatroid(uniform(2, n), weights),
        WeightedComplex(n, cells, [1] * len(cells), validate=False),
    )


# translation vectors are seeded permutations of these, so every seed does
# the same rational arithmetic
SHIFT = (Fraction(5, 2), Fraction(-4, 3), Fraction(3), Fraction(-1, 2), Fraction(-6))


def translate(m: Matroid, v: list[Fraction]) -> Case:
    """Bergman fan of m moved to the rational point v.

    Its valuation is w(B) = sum of v_i over i in B.
    """
    shift = to_quotient(TropPoint(v))
    fan = chain_fan(flat_family(m))
    cells = [Cell(m.n, c.poly.translate(shift)) for c in fan.cells]
    weights = {b: sum(v[i - 1] for i in b) for b in m.bases}
    return Case(
        f"translate n={m.n} r={m.rank}",
        ValuatedMatroid(m, weights),
        WeightedComplex(m.n, cells, [1] * len(cells), validate=False),
    )


DROP = "drop"
DOUBLE = "double"

# decide_complex sees an unbalanced complex either way; the local check meets
# a star with one direction missing, or a star whose weights are not all one.
MUTANT_REASONS = {
    DROP: ("unbalanced", "unbalanced"),
    DOUBLE: ("unbalanced", "weight-not-one"),
}


def mutate(cx: WeightedComplex, kind: str) -> WeightedComplex:
    """Drop the last unbounded cell, or double the first cell's weight.

    The cell is picked by its place in the construction order, which the
    seed does not change, so a mutant costs the same under every seed.
    """
    if kind == DROP:
        gone = max(i for i, c in enumerate(cx.cells) if c.poly.rays)
        keep = [i for i in range(len(cx.cells)) if i != gone]
        return WeightedComplex(
            cx.n, [cx.cells[i] for i in keep], [cx.weights[i] for i in keep], validate=False
        )
    weights = [w * (2 if i == 0 else 1) for i, w in enumerate(cx.weights)]
    return WeightedComplex(cx.n, cx.cells, weights, validate=False)


@dataclass
class Recipe:
    """How to rebuild one case, and the mutant kind it yields, if any."""

    make: Callable[[], Case]
    mutant: str | None = None


# convexity_probe's own sampling seed; the run seed varies the complexes
PROBE_SEED = 7


def _case_ops(recipe: Recipe, samples: int) -> list[Op]:
    label = recipe.make().label

    def op(name: str, check: Callable[[Case], str | None]) -> Op:
        def prepare() -> Check:
            case = recipe.make()
            return lambda: check(case)

        return Op(f"{name} {label}", prepare, recipe)

    def decide(case: Case) -> str | None:
        return check_accepted(recognize.decide_complex(case.complex_), case.valuated.matroid)

    def local(case: Case) -> str | None:
        report = recognize.local_check(case.complex_)
        if not report.accepted:
            return f"local check rejected: {report.global_report.reason}"
        if report.global_report.multiplier != 1 or set(report.multipliers) != {1}:
            return f"multipliers {report.multipliers}"
        return None

    def probe(case: Case) -> str | None:
        result = recognize.convexity_probe(case.complex_, samples=samples, seed=PROBE_SEED)
        return None if result.ok else f"probe found {result.pair}"

    def certify(case: Case) -> str | None:
        for cell in case.complex_.cells:
            if not valuated.certify_cell(case.valuated, cell):
                return f"cell not certified: {cell}"
        return None

    return [
        op("decide_complex", decide),
        op("local_check", local),
        op("convexity_probe", probe),
        op("certify_cell", certify),
    ]


def _mutant_ops(recipe: Recipe) -> list[Op]:
    kind = recipe.mutant
    label = recipe.make().label
    decide_reason, local_reason = MUTANT_REASONS[kind]

    def op(name: str, check: Callable[[WeightedComplex], str | None]) -> Op:
        def prepare() -> Check:
            mutant = mutate(recipe.make().complex_, kind)
            return lambda: check(mutant)

        return Op(f"{name} {kind} {label}", prepare, recipe)

    def decide(mutant: WeightedComplex) -> str | None:
        report = recognize.decide_complex(mutant)
        if report.accepted or report.reason.kind != decide_reason:
            return f"{kind} mutant: expected {decide_reason}, got {report.verdict} {report.reason}"
        return None

    def local(mutant: WeightedComplex) -> str | None:
        report = recognize.local_check(mutant).global_report
        if report.accepted or report.reason.kind != local_reason:
            return f"{kind} mutant: expected {local_reason}, got {report.verdict} {report.reason}"
        return None

    return [op("decide_complex", decide), op("local_check", local)]


# sampled translates: one seeded member of every isomorphism class in these
# (n, rank) strata; n = 5 at ranks 3 and 4 has fans of up to 60 cones and
# is represented by the fixed uniform translates alone, to bound a pass
SAMPLED_STRATA = {False: {(4, 2), (4, 3), (5, 2)}, True: {(3, 2)}}


def _shift(n: int, rng: random.Random) -> list[Fraction]:
    v = list(SHIFT[:n])
    rng.shuffle(v)
    return v


def valuated_recipes(seed: int, small: bool) -> list[Recipe]:
    """Tree lines, fixed and sampled translates; mutants alternate in kind."""
    rng = random.Random(f"valuated_complexes:{seed}")
    leaf_counts = (4,) if small else (4, 5, 6, 7, 8)
    fixed = [uniform(3, 4)] if small else [uniform(3, 5), uniform(4, 5)]

    def tree(n: int) -> Callable[[], Case]:
        labels = rng.sample(range(1, n + 1), n)
        return lambda: tree_line(n, labels)

    def moved(m: Matroid) -> Callable[[], Case]:
        v = _shift(m.n, rng)
        return lambda: translate(m, v)

    mutable = [tree(n) for n in leaf_counts]
    for cls in isomorphism_classes(small_matroids(3 if small else 5)):
        if (cls[0].n, cls[0].rank) in SAMPLED_STRATA[small]:
            mutable.append(moved(rng.choice(cls)))
    recipes = [Recipe(moved(m)) for m in fixed]
    recipes += [Recipe(make, (DROP, DOUBLE)[idx % 2]) for idx, make in enumerate(mutable)]
    return recipes


def build_valuated_complexes(seed: int, workdir: Path, small: bool) -> list[Op]:
    """Four checks on every case, and two on every mutant, in seeded order."""
    rng = random.Random(f"valuated_complexes order:{seed}")
    ops = []
    for recipe in valuated_recipes(seed, small):
        ops += _case_ops(recipe, 10 if small else 30)
        if recipe.mutant:
            ops += _mutant_ops(recipe)
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "cli_roundtrip": build_cli_roundtrip,
    "memory_fans": build_memory_fans,
    "valuated_complexes": build_valuated_complexes,
}
