"""JSON schemas and the command-line interface."""

import argparse
import json
import random
import re
import time
from fractions import Fraction
from itertools import combinations

import pytest

from troplin import io as tio
from troplin.cli import build_parser, main
from troplin.complexes import (
    Cell,
    WeightedComplex,
    chain_fan,
    recession_fan,
    star_fan,
    to_quotient,
)
from troplin.errors import InvalidInputError
from troplin.matroids import ChainFamily, enumerate_matroids, matroid_from_bases
from troplin.points import TropPoint
from troplin.polyhedra import Polyhedron
from troplin.recognize import RecognitionReport, convexity_probe, local_check, recognize_fan

from conftest import (
    MALFORMED_CELLS,
    MALFORMED_STRUCTURES,
    benchmark_tree_line,
    benchmark_valuated_corpus,
    braid_fan_corpus,
    cell_to_json_via_points,
    coordinate_classes,
    het_bound_fans,
    holed_tree_line,
    reference_cell,
    validate_common_faces,
)

F = Fraction
fs = frozenset
U23 = [[1, 2], [1, 3], [2, 3]]
U24 = [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]
U24_KEYS = [f"{i},{j}" for i, j in U24]


class TestSchemas:
    def test_point_round_trip(self):
        p = TropPoint((F(1, 2), F(-3), F(0)))
        assert tio.point_from_json(tio.point_to_json(p)) == p

    def test_point_canonicalized_on_read(self):
        assert tio.point_from_json(["5", "5", "5"]).coords == (0, 0, 0)
        assert tio.point_from_json(["1/2", "0", "0"]).coords == (
            F(0),
            F(-1, 2),
            F(-1, 2),
        )

    def test_matroid_round_trip(self, u23):
        data = tio.matroid_to_json(u23)
        assert data == {"n": 3, "bases": [[1, 2], [1, 3], [2, 3]]}
        assert tio.matroid_from_json(data) == u23

    def test_valuated_round_trip(self, u23_valuated):
        data = tio.valuated_to_json(u23_valuated)
        assert data["weights"] == {"1,2": "0", "1,3": "0", "2,3": "1"}
        rebuilt = tio.valuated_from_json(data)
        assert rebuilt.weights == u23_valuated.weights

    def test_complex_round_trip(self, tree_complex):
        data = tio.complex_to_json(tree_complex)
        rebuilt = tio.complex_from_json(data)
        assert {c.poly.canonical_key for c in rebuilt.cells} == {
            c.poly.canonical_key for c in tree_complex.cells
        }
        assert rebuilt.weights == tree_complex.weights

    def test_complex_with_lineality_round_trip(self, u23_fan):
        from troplin.complexes import star_fan

        line = star_fan(u23_fan, TropPoint((0, -3, 0)))
        data = tio.complex_to_json(line)
        assert data["cells"][0]["lineality"]
        rebuilt = tio.complex_from_json(data)
        assert rebuilt.cells[0].poly.lineality == line.cells[0].poly.lineality

    def test_chain_family_round_trip(self):
        fam = ChainFamily(3, [{1}, {2}, {1, 2, 3}])
        data = tio.chain_family_to_json(fam)
        assert data == {"n": 3, "sets": [[1], [2], [1, 2, 3]]}
        assert tio.chain_family_from_json(data) == fam

    def test_report_fields(self, u23_fan):
        report = recognize_fan(u23_fan)
        data = tio.report_to_json(report)
        assert data["verdict"] == "accepted"
        assert data["reason"] is None
        assert data["multiplier"] == 1
        assert data["flats"] == [[1], [2], [3], [1, 2, 3]]
        assert data["matroid"] == {"n": 3, "bases": [[1, 2], [1, 3], [2, 3]]}

    def test_rejection_report_serializes_witness(self, plus_e_fan):
        report = recognize_fan(plus_e_fan)
        data = tio.report_to_json(report)
        assert data["verdict"] == "rejected"
        assert data["reason"]["kind"] == "flat-axiom"

    def test_bergman_fan_chains_survive_json(self, u24):
        fan = chain_fan(ChainFamily(4, u24.flats | {u24.ground}))
        rebuilt = tio.complex_from_json(json.loads(tio.dumps(tio.complex_to_json(fan))))
        assert [c.chain for c in rebuilt.cells] == [c.chain for c in fan.cells]
        assert rebuilt.chain_tagged

    def test_braid_fan_ingest_needs_no_pairwise_geometry(self, monkeypatch):
        u46 = matroid_from_bases(6, combinations(range(1, 7), 4))
        data = tio.complex_to_json(chain_fan(ChainFamily(6, u46.flats | {u46.ground})))

        def refuse(*args):
            raise AssertionError("pairwise geometry on braid cones")

        monkeypatch.setattr(Polyhedron, "intersection", refuse)
        monkeypatch.setattr(Polyhedron, "contains_polyhedron", refuse)
        assert len(tio.complex_from_json(data).cells) == 120

    def test_malformed_inputs(self):
        with pytest.raises(InvalidInputError):
            tio.matroid_from_json({"n": 3})
        with pytest.raises(InvalidInputError):
            tio.complex_from_json({"n": 3, "cells": []})
        with pytest.raises(InvalidInputError):
            tio.complex_from_json(
                {"n": 3, "cells": [{"vertices": [], "rays": []}]}
            )
        with pytest.raises(InvalidInputError):
            tio.point_from_json(["a", "b"])
        with pytest.raises(InvalidInputError):
            tio.complex_from_json(
                {
                    "n": 3,
                    "cells": [{"vertices": [["0", "0", "0"]], "weight": -1}],
                }
            )


class TestBraidFirstIngest:
    """Braid cones are read as given, every other cell is reduced; either
    way a cell must come out as the normalising constructor builds it."""

    @staticmethod
    def assert_as_reference(n, cell_json):
        raw = json.loads(json.dumps(cell_json))
        vertices = [tio.point_from_json(v) for v in raw["vertices"]]
        rays = [[tio.parse_frac(x) for x in r] for r in raw.get("rays", [])]
        lin = [[tio.parse_frac(x) for x in l] for l in raw.get("lineality", [])]
        got = Cell.from_torus(n, vertices, rays, lin)
        expected = reference_cell(n, vertices, rays, lin)
        assert got.poly.canonical_key == expected.poly.canonical_key
        assert got.chain == expected.chain
        (ingested,) = tio.complex_from_json({"n": n, "cells": [raw]}).cells
        assert ingested.poly.canonical_key == expected.poly.canonical_key
        assert got.braid == ingested.braid == expected.braid
        return got

    def test_corpus_cells_match_the_normalising_constructor(self):
        braid = other = 0
        for fan in braid_fan_corpus(4):
            for cell in fan.cells:
                got = self.assert_as_reference(fan.n, tio.cell_to_json(cell))
                braid += got.chain is not None
                other += got.chain is None
            try:
                rebuilt = tio.complex_from_json(tio.complex_to_json(fan))
            except InvalidInputError as exc:
                # subdividing a cone of the full braid fan of U(4,4) breaks
                # the faces it shares with its neighbours
                with pytest.raises(InvalidInputError, match=str(exc)):
                    validate_common_faces(fan.cells)
                continue
            assert [c.poly.canonical_key for c in rebuilt.cells] == [
                c.poly.canonical_key for c in fan.cells
            ]
            assert [c.chain for c in rebuilt.cells] == [c.chain for c in fan.cells]
        assert braid and other

    @pytest.mark.parametrize(
        "vertices, rays, lineality, is_braid",
        [
            # -e_{1}, -e_{1,2} scaled by 2 and by 1/2
            ([[0, 0, 0, 0]], [[-2, 0, 0, 0], [-2, -2, 0, 0]], [], True),
            ([[0, 0, 0, 0]], [["-1/2", 0, 0, 0], ["-1/2", "-1/2", 0, 0]], [], True),
            # a duplicated ray
            ([[0, 0, 0, 0]], [[-1, 0, 0, 0], [-1, 0, 0, 0], [-1, -1, 0, 0]], [], True),
            # the zero vertex written as (3,3,3,3), twice
            ([[3, 3, 3, 3], [3, 3, 3, 3]], [[-1, 0, 0, 0]], [], True),
            # -e_F written as +e_{F^c}
            ([[0, 0, 0, 0]], [[0, 1, 1, 1], [0, 0, 1, 1]], [], True),
            # the zero ray -e_{1,2,3,4} next to a braid ray
            ([[0, 0, 0, 0]], [[-1, -1, -1, -1], [0, 0, 0, -1]], [], True),
            # the zero cone
            ([[0, 0, 0, 0]], [], [], True),
            # non-nested 0/1 rays, independent and with a redundant one
            ([[0, 0, 0, 0]], [[-1, 0, 0, 0], [0, -1, 0, 0]], [], False),
            ([[0, 0, 0, 0]], [[-1, 0, 0, 0], [0, -1, 0, 0], [-1, -1, 0, 0]], [], False),
            # a non-0/1 ray, redundant and not
            ([[0, 0, 0, 0]], [[-1, 0, 0, 0], [-1, -1, 0, 0], [-2, -1, 0, 0]], [], True),
            ([[0, 0, 0, 0]], [[-2, -1, 0, 0]], [], False),
            # lineality on a braid cone, and a zero lineality vector
            ([[0, 0, 0, 0]], [[-1, 0, 0, 0]], [[-1, -1, 0, 0]], False),
            ([[0, 0, 0, 0]], [[-1, 0, 0, 0]], [[1, 1, 1, 1]], True),
            # a braid-shaped cell at a nonzero vertex
            ([[0, 1, 0, 0]], [[-1, 0, 0, 0]], [], False),
            ([[0, 0, 0, 0], [0, -1, 0, 0]], [[-1, 0, 0, 0]], [], False),
        ],
    )
    def test_adversarial_cells(self, vertices, rays, lineality, is_braid):
        cell = {"vertices": vertices, "rays": rays}
        if lineality:
            cell["lineality"] = lineality
        got = self.assert_as_reference(4, cell)
        assert (got.chain is not None) == is_braid

    @staticmethod
    def written(rng, x):
        """x as a JSON document may write it: "p/q", unreduced as "2p/2q"
        (so 2 as "4/2"), or, when exact, as a JSON integer or float."""
        x = F(x)
        forms = [str(x), f"{2 * x.numerator}/{2 * x.denominator}"]
        if x.denominator == 1:
            forms.append(x.numerator)
        if x.denominator in (1, 2, 4):
            forms.append(float(x))
        return rng.choice(forms)

    def random_cell(self, rng, n, broken):
        """A cell near a braid cone at the origin: equal constant vertices,
        the rays -c*e_F + d*(1,...,1) over a chain with c > 0, in any order,
        some repeated, zero rays and constant lineality; then one generator
        is broken, or none."""
        order = rng.sample(range(1, n + 1), n)
        sizes = sorted(rng.sample(range(1, n), rng.randint(0, n - 1))) if n > 1 else []
        chain = [set(order[:k]) for k in sizes]
        const = rng.choice([0, 3, F(1, 2), -2])
        vertices = [[const] * n for _ in range(rng.randint(1, 2))]
        rays = []
        for f in chain + rng.sample(chain, min(len(chain), rng.randint(0, 2))):
            c, d = F(rng.randint(1, 6), rng.randint(1, 3)), F(rng.randint(-4, 4), rng.randint(1, 2))
            rays.append([d - c * (i in f) for i in range(1, n + 1)])
        rays += [[F(rng.randint(-3, 3), 2)] * n for _ in range(rng.randint(0, 1))]
        lineality = [[rng.randint(-2, 2)] * n for _ in range(rng.randint(0, 1))]
        if broken == "vertex":
            vertices.append([rng.randint(-2, 2) for _ in range(n)])
        elif broken == "unnested":
            f = set(rng.sample(range(1, n + 1), rng.randint(1, n - 1)))
            rays.append([-(i in f) for i in range(1, n + 1)])
        elif broken == "three values":
            rays.append([rng.randint(-2, 0) for _ in range(n)])
        elif broken == "lineality":
            lineality.append([rng.randint(-1, 1) for _ in range(n)])
        rng.shuffle(rays)
        cell = {
            "vertices": [[self.written(rng, x) for x in v] for v in vertices],
            "rays": [[self.written(rng, x) for x in r] for r in rays],
        }
        if lineality:
            cell["lineality"] = [[self.written(rng, x) for x in l] for l in lineality]
        return cell

    def test_seeded_cells_match_the_normalising_constructor(self):
        rng = random.Random(2201)
        seen = set()
        for _ in range(600):
            n = rng.randint(1, 5)
            broken = rng.choice([None, None, "vertex", "unnested", "three values", "lineality"])
            if n == 1:
                broken = None
            got = self.assert_as_reference(n, self.random_cell(rng, n, broken))
            seen.add((broken, got.chain is not None))
        # an unbroken cell is a braid cone at the origin, and every kind of
        # break can make it none
        breaks = {"vertex", "unnested", "three values", "lineality"}
        assert {b for b, braid in seen if not braid} == breaks
        assert (None, True) in seen and (None, False) not in seen

    @pytest.mark.parametrize("cells, message", MALFORMED_CELLS)
    def test_malformed_cells_keep_their_messages(self, cells, message):
        with pytest.raises(InvalidInputError) as err:
            tio.complex_from_json(json.loads(json.dumps({"n": 3, "cells": cells})))
        assert str(err.value) == message

    def test_the_ingest_table_conflates_no_json_values(self):
        """Vectors are tabled per document by their strings: `true`, `1` and
        `1.0` are equal as dict keys, yet only the last two are rationals,
        and a nested list is none."""
        origin = ["0", "0", "0"]
        forms = [["1", "2", "3"], [1.0, "4/2", "3"], [1, 2, 3], ["1", "4/2", 3.0], ["1", "2", "3"]]
        cells = [{"vertices": [v, ["0", "0", str(k + 5)]]} for k, v in enumerate(forms)]
        read = tio.complex_from_json({"n": 3, "cells": cells})
        for raw, cell in zip(cells, read.cells):
            assert set(cell.vertices) == {tio.point_from_json(v) for v in raw["vertices"]}
            assert all(type(x) is int for v in cell.vertices for x in v.coords)
        for first in ([1, 0, 0], [1.0, 0, 0], ["1", "0", "0"]):
            rays = [first, [True, 0, 0]]
            doc = {"n": 3, "cells": [{"vertices": [origin], "rays": [r]} for r in rays]}
            with pytest.raises(InvalidInputError) as err:
                tio.complex_from_json(doc)
            assert str(err.value) == "not a rational: True"
        rays = [["-1", "0", "0"], [["-1"], "0", "0"]]
        doc = {"n": 3, "cells": [{"vertices": [origin], "rays": [r]} for r in rays]}
        with pytest.raises(InvalidInputError) as err:
            tio.complex_from_json(doc)
        assert str(err.value) == "not a rational: ['-1']"

    def test_fans_are_read_from_their_chains(self, monkeypatch):
        """Written and read again with no torus point made and no generator
        reduced, every cell built from its chain."""

        def refuse(*args, **kwargs):
            raise AssertionError("a braid cone went through points or reduction")

        sources = [matroid_from_bases(n, combinations(range(1, n + 1), r)) for r, n in [(4, 5), (3, 6)]]
        with monkeypatch.context() as patch:
            patch.setattr(TropPoint, "__init__", refuse)
            patch.setattr(Polyhedron, "_minimal", refuse)
            fans = []
            for m in sources:
                fan = chain_fan(ChainFamily(m.n, m.flats | {m.ground}))
                fans.append(tio.complex_from_json(json.loads(tio.dumps(tio.complex_to_json(fan)))))
        assert [len(fan.cells) for fan in fans] == [60, 30]
        for fan in fans:
            assert all("braid" in vars(c) for c in fan.cells)
            assert fan.chain_tagged


class TestComplexEmission:
    """`complex_to_json` and `cell_to_json` write each cell as the writer
    through torus points does, to the byte; a benchmark reading `bergman`
    output cannot see a change here, since it builds its expected bytes
    with `complex_to_json`."""

    @staticmethod
    def corpus():
        for n in range(1, 6):
            for m in enumerate_matroids(n):
                yield chain_fan(ChainFamily(n, m.flats | {m.ground}))
        for r in range(1, 7):
            m = matroid_from_bases(6, combinations(range(1, 7), r))
            yield chain_fan(ChainFamily(6, m.flats | {m.ground}))
        yield from braid_fan_corpus(4)
        for seed in (301, 302):
            for cx in benchmark_valuated_corpus(seed):
                yield cx
                yield recession_fan(cx)
                for point in {v for c in cx.cells for v in c.vertices}:
                    yield star_fan(cx, point)
        # a line with a fractional vertex and a translated braid cone
        line = Cell.from_torus(3, [(F(1, 2), 0, F(-2, 3))], lineality=[(0, 1, 2)])
        braid = Cell.from_braid(3, (F(1, 3), -2), (fs({2}),))
        yield WeightedComplex(3, [line, braid], [2, 1], validate=False)

    def test_same_bytes_as_cell_by_cell(self):
        count = fractional = lineality = translated = 0
        for cx in self.corpus():
            cells = [cell_to_json_via_points(c, w) for c, w in zip(cx.cells, cx.weights)]
            got, want = tio.complex_to_json(cx), {"n": cx.n, "cells": cells}
            assert got == want
            assert tio.dumps(got) == tio.dumps(want)
            for cell in cx.cells:
                alone = tio.cell_to_json(cell)
                assert tio.dumps(alone) == tio.dumps(cell_to_json_via_points(cell))
                lineality += bool(cell.lineality)
                translated += cell.braid is not None and cell.chain is None
            count += 1
            fractional += any("/" in x for c in got["cells"] for v in c["vertices"] for x in v)
        assert count > 500 and fractional > 0 and lineality > 0 and translated > 0


@pytest.fixture()
def files(tmp_path, u23_fan, tree_complex, u23_valuated):
    paths = {}
    paths["u23"] = tmp_path / "u23.json"
    paths["u23"].write_text(json.dumps({"n": 3, "bases": [[1, 2], [1, 3], [2, 3]]}))
    paths["u23v"] = tmp_path / "u23v.json"
    paths["u23v"].write_text(json.dumps(tio.valuated_to_json(u23_valuated)))
    paths["fan"] = tmp_path / "fan.json"
    paths["fan"].write_text(json.dumps(tio.complex_to_json(u23_fan)))
    doubled = WeightedComplex(3, u23_fan.cells, [2, 2, 2], validate=False)
    paths["weight2"] = tmp_path / "weight2.json"
    paths["weight2"].write_text(json.dumps(tio.complex_to_json(doubled)))
    paths["tree"] = tmp_path / "tree.json"
    paths["tree"].write_text(json.dumps(tio.complex_to_json(tree_complex)))
    paths["sets"] = tmp_path / "sets.json"
    paths["sets"].write_text(
        json.dumps({"n": 3, "sets": [[1], [2], [3], [1, 2, 3]]})
    )
    return paths


class TestCli:
    def run(self, capsys, *argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        return code, out

    def test_bergman(self, capsys, files, u23_fan):
        code, out = self.run(capsys, "bergman", str(files["u23"]))
        assert code == 0
        data = json.loads(out)
        rebuilt = tio.complex_from_json(data)
        assert {c.poly.canonical_key for c in rebuilt.cells} == {
            c.poly.canonical_key for c in u23_fan.cells
        }

    def test_bergman_then_recognize_build_no_polyhedron(self, capsys, tmp_path, monkeypatch):
        """A Bergman fan goes through `bergman`, `recognize`, `decide`,
        `local-check` and `probe --samples 0` as chains: with every way to
        build a polyhedron refused, they print what the writer through torus
        points, the source matroid, and the checks on the fan of cells
        reduced from their generators give."""

        def refuse(*args, **kwargs):
            raise AssertionError("a polyhedron was built")

        sources = [
            matroid_from_bases(5, combinations(range(1, 6), 4)),
            matroid_from_bases(6, combinations(range(1, 7), 3)),
            # U(3,5) with {1,2,3} dependent
            matroid_from_bases(5, [b for b in combinations(range(1, 6), 3) if b != (1, 2, 3)]),
        ]
        for k, m in enumerate(sources):
            fan = chain_fan(ChainFamily(m.n, m.flats | {m.ground}))
            cells = [cell_to_json_via_points(c, w) for c, w in zip(fan.cells, fan.weights)]
            fan_text = tio.dumps({"n": m.n, "cells": cells}) + "\n"
            flats = sorted((f for f in m.flats | {m.ground} if f), key=lambda f: (len(f), sorted(f)))
            report = RecognitionReport("accepted", matroid=m, flats=tuple(flats))
            reduced = WeightedComplex(
                m.n, [reference_cell(m.n, c.vertices, c.rays) for c in fan.cells], fan.weights
            )
            checks = [
                tio.local_check_to_json(local_check(reduced)),
                tio.probe_to_json(convexity_probe(reduced, samples=0)),
            ]
            matroid_path, fan_path = tmp_path / f"matroid-{k}.json", tmp_path / f"fan-{k}.json"
            matroid_path.write_text(json.dumps(tio.matroid_to_json(m)))
            with monkeypatch.context() as patch:
                for name in ("__init__", "_minimal"):
                    patch.setattr(Polyhedron, name, refuse)
                assert self.run(capsys, "bergman", str(matroid_path)) == (0, fan_text)
                fan_path.write_text(fan_text)
                got = [self.run(capsys, command, str(fan_path)) for command in ("recognize", "decide")]
                got += [
                    self.run(capsys, "local-check", str(fan_path)),
                    self.run(capsys, "probe", "--samples", "0", str(fan_path)),
                ]
            assert got == [(0, tio.dumps(tio.report_to_json(report)) + "\n")] * 2 + [
                (0, tio.dumps(check) + "\n") for check in checks
            ]

    @pytest.mark.parametrize("rank", [1, 2])
    def test_bergman_of_a_uniform_matroid_on_thirty_elements(self, capsys, tmp_path, rank):
        # the flats are the sets of size below the rank and the ground set;
        # closing all 2^30 subsets to find them would never finish
        ground = range(1, 31)
        path = tmp_path / "uniform.json"
        path.write_text(json.dumps({"n": 30, "bases": [list(c) for c in combinations(ground, rank)]}))
        start = time.perf_counter()
        code, out = self.run(capsys, "bergman", str(path))
        assert time.perf_counter() - start < 1
        assert code == 0
        flats = [fs(c) for k in range(1, rank) for c in combinations(ground, k)]
        expected = chain_fan(ChainFamily(30, flats + [fs(ground)]))
        got = tio.complex_from_json(json.loads(out))
        assert len(got.cells) == len(expected.cells) == (1 if rank == 1 else 30)
        assert {c.poly.canonical_key for c in got.cells} == {
            c.poly.canonical_key for c in expected.cells
        }

    def test_segment(self, capsys):
        code, out = self.run(
            capsys, "segment", "--from", "0,-1,-1", "--to", "0,2,1"
        )
        assert code == 0
        assert json.loads(out)["breakpoints"] == [
            ["0", "-1", "-1"],
            ["0", "0", "-1"],
            ["0", "2", "1"],
        ]

    @pytest.mark.parametrize(
        "command, path, options",
        [
            ("segment", None, [("--from", "-1,2,0"), ("--to", "-1/2,0,-3")]),
            ("member", "u23v", [("--point", "-1,1,-5")]),
            ("member", "u23v", [("--point", "-1,0,0")]),
            ("star", "tree", [("--point", "-1,-1,0,0")]),
            ("star", "tree", [("--point", "-2,-1,0,0")]),
        ],
    )
    def test_leading_minus_in_either_form(self, capsys, files, command, path, options):
        head = [command] + ([str(files[path])] if path else [])
        apart = self.run(capsys, *head, *(s for pair in options for s in pair))
        joined = self.run(capsys, *head, *(f"{k}={v}" for k, v in options))
        assert apart == joined
        assert apart[0] in (0, 1)

    @pytest.mark.parametrize(
        "command, path, abbreviated, full",
        [
            ("segment", None, ["--fro", "-1,2", "--t", "-1,0"], ["--from=-1,2", "--to=-1,0"]),
            ("segment", None, ["--f", "-1,2", "--to", "0,0"], ["--from=-1,2", "--to=0,0"]),
            ("member", "u23v", ["--po", "-1,2,0"], ["--point=-1,2,0"]),
            ("star", "tree", ["--p", "-1,-1,0,0"], ["--point=-1,-1,0,0"]),
        ],
    )
    def test_leading_minus_after_an_abbreviation(
        self, capsys, files, command, path, abbreviated, full
    ):
        head = [command] + ([str(files[path])] if path else [])
        got = self.run(capsys, *head, *abbreviated)
        assert got == self.run(capsys, *head, *full)
        assert got[0] in (0, 1)

    def test_member_exit_codes(self, capsys, files):
        code, out = self.run(
            capsys, "member", str(files["u23v"]), "--point", "0,1,-5"
        )
        assert code == 0 and json.loads(out)["member"] is True
        code, out = self.run(
            capsys, "member", str(files["u23v"]), "--point", "0,0,0"
        )
        assert code == 1 and json.loads(out)["member"] is False

    def test_balanced(self, capsys, files):
        code, out = self.run(capsys, "balanced", str(files["fan"]))
        assert code == 0 and json.loads(out)["balanced"] is True

    def test_recognize_weight_two(self, capsys, files):
        code, out = self.run(capsys, "recognize", str(files["weight2"]))
        assert code == 1
        data = json.loads(out)
        assert data["verdict"] == "rejected"
        assert data["reason"]["kind"] == "weight-not-one"

    def test_decide_tree(self, capsys, files):
        code, out = self.run(capsys, "decide", str(files["tree"]))
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "accepted"
        assert data["matroid"]["n"] == 4

    def test_local_check(self, capsys, files):
        code, out = self.run(capsys, "local-check", str(files["tree"]))
        assert code == 0
        data = json.loads(out)
        assert data["global"]["verdict"] == "accepted"
        assert len(data["vertices"]) == 2

    def test_recession_and_star(self, capsys, files):
        code, out = self.run(capsys, "recession", str(files["tree"]))
        assert code == 0
        assert len(json.loads(out)["cells"]) == 4
        code, out = self.run(
            capsys, "star", str(files["tree"]), "--point", "0,0,0,0"
        )
        assert code == 0
        assert len(json.loads(out)["cells"]) == 3

    def test_chains(self, capsys, files):
        code, out = self.run(capsys, "chains", str(files["sets"]))
        assert code == 0
        assert len(json.loads(out)["cells"]) == 3

    def test_probe(self, capsys, files):
        code, out = self.run(
            capsys, "probe", str(files["fan"]), "--samples", "60", "--seed", "4"
        )
        assert code == 0
        assert json.loads(out)["counterexample"] is None

    def test_enumerate(self, capsys):
        code, out = self.run(capsys, "enumerate", "--n", "3")
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 6

    def test_missing_file_is_exit_two(self, capsys, tmp_path):
        code = main(["recognize", str(tmp_path / "nope.json")])
        assert code == 2

    def test_malformed_json_is_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["recognize", str(bad)]) == 2

    def test_schema_violation_is_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 3, "cells": [{"rays": []}]}))
        assert main(["recognize", str(bad)]) == 2

    @pytest.mark.parametrize("command, data", MALFORMED_STRUCTURES)
    def test_malformed_structure_is_exit_two(self, capsys, tmp_path, command, data):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main([command, str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "--n", "0"],
            ["enumerate", "--n", "-1"],
            ["probe", "FAN", "--samples", "-3"],
        ],
    )
    def test_count_below_its_bound_is_exit_two(self, capsys, files, argv):
        assert main([str(files["fan"]) if a == "FAN" else a for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    def test_probe_without_samples_checks_vertex_pairs(self, capsys, files, tmp_path):
        code, out = self.run(capsys, "probe", str(files["fan"]), "--samples", "0")
        assert code == 0 and json.loads(out)["counterexample"] is None
        two = tmp_path / "two_points.json"
        cells = [{"vertices": [[0, 0, 0]]}, {"vertices": [[0, 1, 2]]}]
        two.write_text(json.dumps({"n": 3, "cells": cells}))
        code, out = self.run(capsys, "probe", str(two), "--samples", "0")
        assert code == 1
        found = json.loads(out)["counterexample"]
        assert [found["from"], found["to"]] == [["0", "0", "0"], ["0", "1", "2"]]

    def test_probe_draws_samples_lazily(self, capsys, tmp_path):
        path = tmp_path / "holed_tree.json"
        path.write_text(json.dumps(tio.complex_to_json(holed_tree_line(6))))
        code, out = self.run(capsys, "probe", str(path), "--samples", "200")
        assert code == 1 and json.loads(out)["counterexample"] is not None
        start = time.perf_counter()
        assert self.run(capsys, "probe", str(path), "--samples", "1000000") == (1, out)
        assert time.perf_counter() - start < 1

    def test_weight_on_a_non_basis_is_exit_two(self, capsys, tmp_path):
        bases = [[1, 2], [1, 3], [2, 3]]
        weights = {"1,2": "0", "1,3": "0", "2,3": "0", "1,4": "3"}
        bad = tmp_path / "extra.json"
        bad.write_text(json.dumps({"n": 3, "bases": bases, "weights": weights}))
        assert main(["member", str(bad), "--point", "0,0,0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert "[1, 4]" in captured.err

    @pytest.mark.parametrize(
        "first, second", [("1,2", "2,1"), ("2,1", "1,2"), ("1,2", "1,1,2")]
    )
    def test_a_basis_named_twice_is_exit_two(self, capsys, tmp_path, first, second):
        # keeping either value would make the verdict depend on key order:
        # w(12) = 0 puts (0, 0, 0) in the space, and w(12) = 5 does not
        weights = {first: "0", second: "5", "1,3": "0", "2,3": "0"}
        bad = tmp_path / "twice.json"
        bad.write_text(json.dumps({"n": 3, "bases": [[1, 2], [1, 3], [2, 3]], "weights": weights}))
        assert main(["member", str(bad), "--point", "0,0,0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: basis [1, 2] named twice in 'weights'\n"

    @pytest.mark.parametrize(
        "argv, data, message",
        [
            (
                ["member", "--point", "0,0,0"],
                {"n": 3, "bases": U23},
                "valuated matroid JSON needs a 'weights' mapping",
            ),
            (
                ["member", "--point", "0,0,0"],
                {"n": 3, "bases": U23, "weights": {"1,x": "0", "1,3": "0", "2,3": "0"}},
                "bad basis key '1,x'",
            ),
            (
                ["member", "--point", "0,0,0,0"],
                {"n": 4, "bases": U24, "weights": {k: str(5 * (k == "3,4")) for k in U24_KEYS}},
                "tropical Pluecker relations fail for B1=[1, 2], B2=[3, 4], u=1",
            ),
            (["chains"], {"n": 3}, "family JSON needs fields 'n' and 'sets'"),
            (["recognize"], {"cells": []}, "complex JSON needs fields 'n' and 'cells'"),
            # a set that names an element twice is refused, not read as one
            (
                ["member", "--point", "0,0,0"],
                {"n": 3, "bases": U23, "weights": {"1,1,2": "0", "1,3": "0", "2,3": "0"}},
                "element 1 repeated in [1, 1, 2] of 'weights'",
            ),
            (
                ["bergman"],
                {"n": 3, "bases": [[1, 2, 2], [1, 3], [2, 3]]},
                "element 2 repeated in [1, 2, 2] of 'bases'",
            ),
            (
                ["chains"],
                {"n": 3, "sets": [[1, 1], [1, 2, 3]]},
                "element 1 repeated in [1, 1] of 'sets'",
            ),
        ],
    )
    def test_input_errors_keep_their_messages(self, capsys, tmp_path, argv, data, message):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        assert main([argv[0], str(path), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    def test_nested_braid_cones_are_exit_two(self, capsys, tmp_path):
        cells = [
            {"vertices": [[0, 0, 0]], "rays": [[-1, 0, 0]]},
            {"vertices": [[0, 0, 0]], "rays": [[-1, 0, 0], [-1, -1, 0]]},
        ]
        bad = tmp_path / "nested.json"
        bad.write_text(json.dumps({"n": 3, "cells": cells}))
        assert main(["recognize", str(bad)]) == 2
        assert "contain one another" in capsys.readouterr().err

    def test_repeated_cone_is_exit_two(self, capsys, files, tmp_path):
        # the repeat is written through other representatives of its rays
        data = json.loads(files["fan"].read_text())
        repeat = {"vertices": [[5, 5, 5]], "rays": [[-2, 0, 0]]}
        assert data["cells"][0]["rays"] == [["0", "1", "1"]]
        for extra in (data["cells"][0], repeat):
            bad = tmp_path / "repeated.json"
            bad.write_text(json.dumps({"n": 3, "cells": data["cells"] + [extra]}))
            for command in ("recognize", "decide", "local-check"):
                assert main([command, str(bad)]) == 2
                captured = capsys.readouterr()
                assert captured.out == "" and "duplicate maximal cells" in captured.err

    def test_refinement_over_budget_is_exit_two(self, capsys, tmp_path):
        # a subdivided cone is no braid cone, so support equality refines it
        fan = next(
            c for c in braid_fan_corpus(3) if any(cell.chain is None for cell in c.cells)
        )
        path = tmp_path / "subdivided.json"
        path.write_text(json.dumps(tio.complex_to_json(fan)))
        assert main(["recognize", str(path)]) == 0
        capsys.readouterr()
        assert main(["recognize", str(path), "--budget", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "braid refinement exceeded" in captured.err

    def test_coarse_fan_off_the_flat_axioms_is_refined_first(self, capsys, tmp_path):
        # cones over two of the rays +e_i; refining them gives -e_F for every
        # F of size 2 or 3, which is not closed under intersection
        rays = [tuple(int(i == j) for j in range(4)) for i in range(4)]
        origin = [TropPoint((0,) * 4)]
        cells = [Cell.from_torus(4, origin, rays=pair) for pair in combinations(rays, 2)]
        path = tmp_path / "positive.json"
        path.write_text(json.dumps(tio.complex_to_json(WeightedComplex(4, cells, [1] * 6))))
        assert main(["recognize", str(path)]) == 1
        assert json.loads(capsys.readouterr().out)["reason"]["kind"] == "flat-axiom"
        assert main(["recognize", str(path), "--budget", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "braid refinement exceeded" in captured.err

    def test_bergman_recognize_round_trip_of_u2_30(self, capsys, tmp_path):
        u230 = matroid_from_bases(30, combinations(range(1, 31), 2))
        mpath = tmp_path / "u230.json"
        mpath.write_text(json.dumps(tio.matroid_to_json(u230)))
        assert main(["bergman", str(mpath)]) == 0
        fan_path = tmp_path / "u230_fan.json"
        fan_path.write_text(capsys.readouterr().out)
        assert main(["recognize", str(fan_path)]) == 0
        assert json.loads(capsys.readouterr().out)["matroid"] == tio.matroid_to_json(u230)

    def test_tree_line_with_thirteen_leaves(self, capsys, tmp_path):
        line = benchmark_tree_line(13)
        path = tmp_path / "tree13.json"
        path.write_text(json.dumps(tio.complex_to_json(line)))
        assert main(["decide", str(path)]) == 0
        u213 = matroid_from_bases(13, combinations(range(1, 14), 2))
        assert json.loads(capsys.readouterr().out)["matroid"] == tio.matroid_to_json(u213)
        assert main(["local-check", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["global"]["verdict"] == "accepted"

    def test_heterogeneity_bound_fans_are_exit_one(self, capsys, tmp_path):
        # the witness is a point of the first cell with four coordinate
        # classes, also when that cell is refined into several pieces
        for k, fan in enumerate(het_bound_fans()):
            path = tmp_path / f"het{k}.json"
            path.write_text(json.dumps(tio.complex_to_json(fan)))
            assert main(["recognize", str(path)]) == 1
            reason = json.loads(capsys.readouterr().out)["reason"]
            assert reason["kind"] == "het-bound"
            witness = tio.point_from_json(reason["witness"])
            first = next(c for c in fan.cells if coordinate_classes(c) > fan.dim + 1)
            assert first.poly.contains(to_quotient(witness))
            assert len(set(witness.coords)) > fan.dim + 1

    def test_byte_determinism(self, capsys, files):
        _, first = self.run(
            capsys, "probe", str(files["fan"]), "--samples", "40", "--seed", "9"
        )
        _, second = self.run(
            capsys, "probe", str(files["fan"]), "--samples", "40", "--seed", "9"
        )
        assert first == second
        _, third = self.run(capsys, "decide", str(files["tree"]))
        _, fourth = self.run(capsys, "decide", str(files["tree"]))
        assert third == fourth

    def test_pretty_output(self, capsys, files):
        code, out = self.run(capsys, "--pretty", "balanced", str(files["fan"]))
        assert code == 0
        assert "balanced: True" in out

    def test_bergman_recognize_round_trip_via_files(self, capsys, tmp_path):
        for n in (1, 2, 3, 4, 5):
            for idx, matroid in enumerate(enumerate_matroids(n)):
                mpath = tmp_path / f"m{n}_{idx}.json"
                mpath.write_text(json.dumps(tio.matroid_to_json(matroid)))
                code = main(["bergman", str(mpath)])
                out = capsys.readouterr().out
                assert code == 0
                fan_path = tmp_path / f"fan{n}_{idx}.json"
                fan_path.write_text(out)
                code = main(["recognize", str(fan_path)])
                rep = json.loads(capsys.readouterr().out)
                assert code == 0
                assert rep["matroid"] == tio.matroid_to_json(matroid)


# name -> (help, [(option strings or dest, required, type, default)]), as
# `troplin --help` and `troplin <name> --help` have always listed them
COMMANDS = {
    "bergman": ("chains-of-flats fan of a matroid", [("matroid", True, None, None)]),
    "segment": (
        "breakpoints of a tropical segment",
        [(("--from",), True, None, None), (("--to",), True, None, None)],
    ),
    "member": (
        "tropical linear space membership",
        [("valuated", True, None, None), (("--point",), True, None, None)],
    ),
    "balanced": ("check the balancing equation", [("complex", True, None, None)]),
    "recession": (
        "recession fan with aggregated weights",
        [("complex", True, None, None), (("--budget",), False, int, 20000)],
    ),
    "star": (
        "star fan at a support point",
        [("complex", True, None, None), (("--point",), True, None, None)],
    ),
    "chains": ("fan of chains in a subset family", [("family", True, None, None)]),
    "recognize": (
        "recognize a matroidal fan",
        [("complex", True, None, None), (("--budget",), False, int, 20000)],
    ),
    "decide": (
        "decide a complex via its recession fan",
        [("complex", True, None, None), (("--budget",), False, int, 20000)],
    ),
    "local-check": (
        "recognize the star at every vertex",
        [("complex", True, None, None), (("--budget",), False, int, 20000)],
    ),
    "probe": (
        "seeded convexity counterexample search",
        [
            ("complex", True, None, None),
            (("--samples",), False, int, 200),
            (("--seed",), False, int, 0),
        ],
    ),
    "enumerate": ("all loopfree matroids on n elements", [(("--n",), True, int, None)]),
}


class TestParser:
    @staticmethod
    def subcommands():
        parser = build_parser()
        (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return parser, sub

    def test_every_subcommand_is_pinned(self):
        parser, sub = self.subcommands()
        assert [(a.dest, a.help) for a in sub._choices_actions] == [
            (name, help_text) for name, (help_text, _) in COMMANDS.items()
        ]
        for name, (_, arguments) in COMMANDS.items():
            got = [
                (tuple(a.option_strings) or a.dest, a.required, a.type, a.default)
                for a in sub.choices[name]._actions
                if not isinstance(a, argparse._HelpAction)
            ]
            assert got == arguments, name
        top = [(a.option_strings, a.default) for a in parser._actions[1:] if a is not sub]
        assert top == [(["--pretty"], False)]

    def test_help_lists_every_subcommand_and_its_usage(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")
        helps = []
        for argv in [["--help"]] + [[name, "--help"] for name in COMMANDS]:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            helps.append(capsys.readouterr().out)
        top, *subs = helps
        for name, (help_text, _) in COMMANDS.items():
            assert re.search(rf"^ +{name} +{help_text}$", top, re.M), name
        assert [text.splitlines()[0] for text in subs] == [
            "usage: troplin bergman [-h] matroid",
            "usage: troplin segment [-h] --from FROM --to TO",
            "usage: troplin member [-h] --point POINT valuated",
            "usage: troplin balanced [-h] complex",
            "usage: troplin recession [-h] [--budget BUDGET] complex",
            "usage: troplin star [-h] --point POINT complex",
            "usage: troplin chains [-h] family",
            "usage: troplin recognize [-h] [--budget BUDGET] complex",
            "usage: troplin decide [-h] [--budget BUDGET] complex",
            "usage: troplin local-check [-h] [--budget BUDGET] complex",
            "usage: troplin probe [-h] [--samples SAMPLES] [--seed SEED] complex",
            "usage: troplin enumerate [-h] --n N",
        ]

    def test_bare_troplin_exits_two_with_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and err.startswith("usage: troplin")
        assert "the following arguments are required: command" in err
