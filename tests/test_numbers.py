"""The number rule: every exact value is an int when it is integral and a
Fraction with denominator > 1 otherwise, from JSON through points and
polyhedra, and no float arises anywhere."""

import fractions
import json
import random
import sys
import time
from fractions import Fraction
from itertools import combinations

import pytest

import test_properties
from troplin import io as tio
from troplin.cli import main
from troplin.complexes import (
    Cell,
    WeightedComplex,
    direction_to_quotient,
    from_quotient,
    recession_fan,
    star_fan,
)
from troplin.errors import InvalidInputError
from troplin.matroids import enumerate_matroids, matroid_from_bases
from troplin.points import TropPoint, _frac, segment, trop_ball, trop_combine
from troplin.recognize import _sample, _scaled_point
from troplin.valuated import ValuatedMatroid

from conftest import benchmark_valuated_corpus, make_tree_cells

F = Fraction


def is_canonical(x) -> bool:
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def assert_canonical(values):
    bad = [x for x in values if not is_canonical(x)]
    assert not bad, bad


def assert_point(p: TropPoint):
    assert_canonical(p.coords)


def assert_polyhedron(poly):
    for v in poly.vertices:
        assert_canonical(v)
    for r in poly.rays + poly.lineality:
        assert all(type(x) is int for x in r), r
    for rows in poly.hrep:
        for a, b in rows:
            assert all(type(x) is int for x in a), a
            assert_canonical([b])


class TestParseFrac:
    ODD = [
        "+3", " 3", "3\n", "3_0", "٣", "-0", "007", "1e2", "1.0", "4/2", "",
        "1/0", "-4/6", " -1/2 ", "0/5", "--1", "3/", "/3", "1/-2", "x", "9" * 5000,
        "1e4300", "1E-4300", " 2.5e1_0 ", "\u0663e\u0663",
    ]
    JSON_NUMBERS = [0, 3, -7, 10**30, 2.5, -0.125, 1e2, 1e-3, True, None]

    HUGE_EXPONENTS = ["1e9999999", "1e99999999", "1e" + "\u0669" * 7, "1e-9999999", "1E+4301"]

    @staticmethod
    def reference(s):
        """`Fraction(str(s))`, with an exponent past the integer digit limit
        refused: Fraction would build a power of ten that long."""
        match = fractions._RATIONAL_FORMAT.match(str(s))
        if match and match["exp"] and abs(int(match["exp"])) > sys.get_int_max_str_digits():
            return None
        try:
            return Fraction(str(s))
        except (ValueError, ZeroDivisionError):
            return None

    @staticmethod
    def parsed(s):
        try:
            return tio.parse_frac(s)
        except InvalidInputError:
            return None

    @staticmethod
    def random_inputs(rng):
        for _ in range(2000):
            yield "".join(rng.choice("0123456789-+/._e \n٣") for _ in range(rng.randint(0, 6)))
            digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 4)))
            yield rng.choice(["", "-", "+"]) + digits + rng.choice(["", "/" + digits[::-1]])

    def test_accepts_and_reads_what_fraction_does(self):
        rng = random.Random(97)
        inputs = self.ODD + self.JSON_NUMBERS + list(self.random_inputs(rng))
        kinds = set()
        for s in inputs:
            expected, got = self.reference(s), self.parsed(s)
            assert (got is None) == (expected is None), s
            if got is not None:
                assert got == expected and is_canonical(got), (s, got)
                kinds.add(type(got))
        assert kinds == {int, Fraction}

    def test_huge_exponents_are_refused_at_once(self, tmp_path, capsys):
        assert tio.parse_frac("1e4300") == 10**4300
        assert tio.parse_frac("-1e-4300") == Fraction(-1, 10**4300)
        for s in self.HUGE_EXPONENTS:
            assert self.reference(s) is None
            path = tmp_path / "complex.json"
            cell = {"vertices": [["0", s]], "weight": 1}
            path.write_text(json.dumps({"n": 2, "cells": [cell]}))
            start = time.perf_counter()
            with pytest.raises(InvalidInputError):
                tio.parse_frac(s)
            assert main(["balanced", str(path)]) == 2
            assert main(["segment", "--from", "0," + s, "--to", "0,0"]) == 2
            assert time.perf_counter() - start < 1, s
            assert "not a rational" in capsys.readouterr().err

    def test_numbers_too_long_to_print_exit_two(self, tmp_path, capsys):
        # 10^limit parses but has one digit more than Python prints; so has
        # the recession weight summed from two weights of limit digits
        limit = sys.get_int_max_str_digits()
        u23 = tmp_path / "u23.json"
        weights = {"1,2": "0", "1,3": "0", "2,3": "1"}
        u23.write_text(json.dumps({"n": 3, "bases": [[1, 2], [1, 3], [2, 3]], "weights": weights}))
        rays = tmp_path / "rays.json"
        cells = [{"vertices": [v], "rays": [[-1, 0, 0]], "weight": 10**limit - 1} for v in ([0, 0, 0], [0, 1, 0])]
        rays.write_text(json.dumps({"n": 3, "cells": cells}))
        literal = tmp_path / "literal.json"
        literal.write_text('{"n": 2, "cells": [{"vertices": [[0, 0]], "weight": 1' + "0" * limit + "}]}")
        printable = [
            ["segment", "--from", f"0,1e{limit - 1}", "--to", "0,0"],
            ["member", str(u23), "--point", f"0,0,-1e-{limit - 1}"],
            ["balanced", str(rays)],
        ]
        too_long = [
            ["segment", "--from", f"0,1e{limit}", "--to", "0,0"],
            ["segment", "--from", "0,0", "--to", f"0,-1e-{limit}"],
            ["member", str(u23), "--point", f"0,0,1e{limit}"],
            ["member", str(u23), "--point", f"0,1e-{limit},0"],
            ["recession", str(rays)],
            ["recognize", str(literal)],
        ]
        for argv in printable:
            for pretty in ([], ["--pretty"]):
                assert main(pretty + argv) in (0, 1), argv
                assert capsys.readouterr().err == ""
        for argv in too_long:
            for pretty in ([], ["--pretty"]):
                assert main(pretty + argv) == 2, argv
                out, err = capsys.readouterr()
                assert out == "" and err.startswith("error: ") and "Traceback" not in err

    def test_integral_values_come_back_as_ints(self):
        for s in ["4/2", "-0", "007", "1e2", "1.0", 3, 2.0, "-6/3"]:
            assert type(tio.parse_frac(s)) is int
        assert type(tio.parse_frac("-4/6")) is Fraction

    def test_canonical_number_of_any_exact_value(self):
        assert [_frac(x) for x in (3, F(6, 2), True, 0.5, F(1, 3))] == [3, 3, 1, F(1, 2), F(1, 3)]
        assert [type(_frac(x)) for x in (F(6, 2), True, 2.0)] == [int, int, int]


class TestCanonicalObjects:
    SHIFT = (F(5, 2), F(-4, 3), F(3), F(-1, 2))

    @staticmethod
    def random_polyhedra():
        rng = random.Random(101)
        kernel = test_properties.TestKernelAgainstHullOracle.random_polyhedron
        integer_form = test_properties.TestIntegerFormAgainstFractionOracle.random_polyhedron
        for _ in range(30):
            yield kernel(rng)
            yield integer_form(rng, rng.randint(1, 4))

    def test_polyhedra_and_their_derived_objects(self):
        polys = list(self.random_polyhedra())
        fractional = integral = 0
        for poly, other in zip(polys, polys[1:]):
            shift = self.SHIFT[: poly.m]
            moved = poly.translate(shift)
            back = moved.translate(tuple(-x for x in shift))
            assert back == poly
            derived = [poly, moved, back, poly.recession(), *poly.all_faces()]
            derived += [p for p in poly.split((1,) * poly.m, F(1, 2)) if p is not None]
            if other.m == poly.m and (meet := poly.intersection(other)) is not None:
                derived.append(meet)
            for p in derived:
                assert_polyhedron(p)
                inner = p.relative_interior_point()
                assert_canonical(inner)
                assert_polyhedron(p.minimal_face_containing(inner))
                assert_point(from_quotient(inner))
            for v in poly.vertices:
                fractional += any(type(x) is Fraction for x in v)
                integral += all(type(x) is int for x in v)
        assert fractional and integral

    def test_points(self):
        rng = random.Random(103)
        for _ in range(200):
            n = rng.randint(1, 5)
            raw = [rng.choice([rng.randint(-4, 4), F(rng.randint(-8, 8), rng.randint(1, 3))]) for _ in range(n)]
            x, y = TropPoint(raw), TropPoint(reversed(raw))
            shift = [F(rng.randint(-6, 6), 2) for _ in range(n)]
            points = [x, y, x.minus(y), x.translate(shift), x.scale(F(3, 2)), x.scale(2)]
            points += [trop_combine([(F(1, 2), x), (1, y)]), *segment(x, y)]
            points += list(trop_ball(x, F(3, 2)).vertices)
            points.append(tio.point_from_json([str(c) for c in raw]))
            for p in points:
                assert_point(p)
            assert_canonical(direction_to_quotient(raw))

    def test_translated_complexes_stars_and_samples(self):
        cases = list(benchmark_valuated_corpus(301))[::3]
        cases.append(WeightedComplex(4, make_tree_cells(self.SHIFT), [1] * 5))
        rng = random.Random(107)
        for cx in cases:
            recession = recession_fan(cx)
            for cell in cx.cells + recession.cells:
                assert_polyhedron(cell.poly)
                for v in cell.vertices:
                    assert_point(v)
                assert_point(_scaled_point(*_sample(cell, rng)))
            for v in {v for c in cx.cells for v in c.vertices}:
                for cell in star_fan(cx, v).cells:
                    assert_polyhedron(cell.poly)

    def test_valuations(self):
        u24 = matroid_from_bases(4, combinations(range(1, 5), 2))
        integral = {b: F(sum(b)) for b in u24.bases}
        moved = {b: sum(self.SHIFT[i - 1] for i in b) for b in u24.bases}
        for weights in (integral, moved):
            v = ValuatedMatroid(u24, weights)
            assert_canonical(v.weights.values())
            for vec in v.circuit_valuations.values():
                assert_canonical(x for x in vec if x is not None)
            data = json.loads(tio.dumps(tio.valuated_to_json(v)))
            assert tio.valuated_from_json(data).weights == v.weights
        assert all(type(w) is int for w in ValuatedMatroid(u24, integral).weights.values())


class TestSampledPoints:
    @staticmethod
    def fraction_sample(cell, rng):
        """The sampler as a Fraction accumulation, coordinate by coordinate."""
        q = list(cell.poly.vertices[rng.randrange(len(cell.poly.vertices))])
        for r in cell.poly.rays:
            c = F(rng.randint(0, 6), rng.randint(1, 3))
            q = [a + c * x for a, x in zip(q, r)]
        for l in cell.poly.lineality:
            c = F(rng.randint(-6, 6), rng.randint(1, 3))
            q = [a + c * x for a, x in zip(q, l)]
        return from_quotient(q)

    def test_samples_match_the_fraction_accumulation(self):
        cells = [c for cx in benchmark_valuated_corpus(301) for c in cx.cells]
        line = Cell.from_torus(3, [TropPoint((F(1, 2), 0, F(-2, 3)))], lineality=[(0, 1, 2)])
        cells += [line, Cell.from_torus(3, [(0, F(1, 3), 1), (0, 1, F(1, 2))])]
        for seed in range(3):
            fast, slow = random.Random(seed), random.Random(seed)
            for cell in cells:
                got = _scaled_point(*_sample(cell, fast))
                assert got == self.fraction_sample(cell, slow)
            assert fast.random() == slow.random()


# JSON integers the schema allows: sizes, weights, multipliers, ground set
# elements, and the witnesses of rejections that are about those
INTEGER_FIELDS = {"n", "weight", "multiplier", "bases", "flats", "sets", "count"}
INTEGER_WITNESSES = {"non-pure", "weight-not-one", "flat-axiom"}
COORDINATE_FIELDS = {"vertices", "rays", "lineality", "point", "from", "to", "gap_point", "gap_parameter"}


def bare_numbers(data, key=None) -> list:
    """The fields holding a JSON number outside the integer fields."""
    if isinstance(data, list):
        return [k for x in data for k in bare_numbers(x, key)]
    if isinstance(data, dict):
        return [
            k
            for field, value in data.items()
            if field not in INTEGER_FIELDS
            and not (field == "witness" and data.get("kind") in INTEGER_WITNESSES)
            for k in bare_numbers(value, field)
        ]
    return [key] if isinstance(data, (int, float)) and not isinstance(data, bool) else []


def coordinates(data, inside=False) -> list[str]:
    if isinstance(data, list):
        return [s for x in data for s in coordinates(x, inside)]
    if isinstance(data, dict):
        return [s for k, v in data.items() for s in coordinates(v, k in COORDINATE_FIELDS)]
    return [data] if inside else []


class TestJsonCoordinatesAreStrings:
    @pytest.fixture()
    def inputs(self, tmp_path):
        def write(name, data):
            path = tmp_path / name
            path.write_text(json.dumps(data))
            return str(path)

        def cx_file(name, cx):
            return write(name, tio.complex_to_json(cx))

        origin = [TropPoint((0,) * 4)]
        line = WeightedComplex(
            4, [Cell.from_torus(4, origin, rays=[r]) for r in [(0, -1, -2, -3), (0, 1, 2, 3)]], [1, 1]
        )
        flats = [{1}, {2}, {3, 4}, {1, 2}, {1, 3, 4}, {2, 3, 4}]
        rays = [tuple(-int(i in f) for i in range(1, 5)) for f in flats]
        flat_rays = WeightedComplex(
            4, [Cell.from_torus(4, origin, rays=[r]) for r in rays], [1] * 6, validate=False
        )
        tree = make_tree_cells(TestCanonicalObjects.SHIFT)
        segment_cell = Cell.from_torus(3, [(0, 0, 0), (0, F(1, 2), 2)])
        plus_e = WeightedComplex(
            3, [Cell.from_torus(3, [(0, 0, 0)], rays=[r]) for r in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]],
            [1, 1, 1], validate=False,
        )
        out = {
            "matroids": [
                write(f"m{k}.json", tio.matroid_to_json(m)) for k, m in enumerate(enumerate_matroids(4))
            ],
            "het": cx_file("het.json", line),
            "support": cx_file("support.json", flat_rays),
            "flat_axiom": cx_file("plus_e.json", plus_e),
            "tree": cx_file("tree.json", WeightedComplex(4, tree, [1] * 5)),
            "tree_cut": cx_file("cut.json", WeightedComplex(4, tree[:-1], [1] * 4, validate=False)),
            "tree_double": cx_file("double.json", WeightedComplex(4, tree, [2] + [1] * 4)),
            "segment": cx_file("segment.json", WeightedComplex(3, [segment_cell], [1])),
        }
        return out

    def run(self, capsys, *argv):
        code = main(list(argv))
        data = json.loads(capsys.readouterr().out)
        assert bare_numbers(data) == [], argv
        coords = coordinates(data)
        for s in coords:
            assert isinstance(s, str) and str(tio.parse_frac(s)) == s, (argv, s)
        return code, data, coords

    def test_emitted_coordinates(self, capsys, tmp_path, inputs):
        seen = set()
        for path in inputs["matroids"]:
            code, fan, coords = self.run(capsys, "bergman", path)
            assert code == 0 and coords
            fan_path = tmp_path / "fan.json"
            fan_path.write_text(json.dumps(fan))
            assert self.run(capsys, "recognize", str(fan_path))[0] == 0
            fan["cells"] = fan["cells"][1:]
            if fan["cells"]:
                fan_path.write_text(json.dumps(fan))
                code, report, coords = self.run(capsys, "recognize", str(fan_path))
                if code:
                    seen.add(report["reason"]["kind"])
                    assert coords, "a rejection witness cell"
        for name in ("het", "support", "flat_axiom"):
            code, report, coords = self.run(capsys, "recognize", inputs[name])
            assert code == 1
            seen.add(report["reason"]["kind"])
        assert seen == {"unbalanced", "het-bound", "support-mismatch", "flat-axiom"}
        for name in ("tree", "tree_cut", "tree_double"):
            code, report, coords = self.run(capsys, "local-check", inputs[name])
            assert coords and any("/" in s for s in coords)
            self.run(capsys, "decide", inputs[name])
        code, result, coords = self.run(capsys, "probe", inputs["segment"], "--samples", "0")
        assert code == 1 and result["counterexample"] is not None and len(coords) == 10
        code, result, coords = self.run(capsys, "probe", inputs["tree"], "--samples", "20")
        assert code == 0

    def test_jsonable_passes_ints_through(self):
        # why a bare coordinate must never reach it
        assert tio._jsonable((3, F(1, 2))) == [3, "1/2"]
