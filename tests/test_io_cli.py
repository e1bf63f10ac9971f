"""JSON schemas and the command-line interface."""

import json
import time
from fractions import Fraction
from itertools import combinations

import pytest

from troplin import io as tio
from troplin import recognize
from troplin.cli import main
from troplin.complexes import Cell, WeightedComplex, chain_fan
from troplin.errors import InvalidInputError
from troplin.matroids import ChainFamily, enumerate_matroids, matroid_from_bases
from troplin.points import TropPoint
from troplin.polyhedra import Polyhedron
from troplin.recognize import recognize_fan

from conftest import (
    benchmark_tree_line,
    braid_fan_corpus,
    reference_cell,
    validate_common_faces,
)

F = Fraction
fs = frozenset


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

    @pytest.mark.parametrize(
        "command, data",
        [
            ("recognize", {"n": 3, "cells": [[1]]}),
            ("bergman", {"n": 3, "bases": [[1, "a"]]}),
            ("bergman", {"n": 3, "bases": 5}),
            ("recognize", {"n": 3, "cells": [{"vertices": [[0, 0, 0]], "weight": True}]}),
            # 'n' is a JSON integer >= 1: no float, bool or string is rounded or cast
            ("recognize", {"n": 3.9, "cells": [{"vertices": [[0, 0, 0]], "rays": [[-1, 0, 0]]}]}),
            ("balanced", {"n": True, "cells": [{"vertices": [[0]]}]}),
            ("bergman", {"n": "3", "bases": [[1, 2], [1, 3], [2, 3]]}),
            ("bergman", {"n": 2.0, "bases": [[1], [2]]}),
            ("chains", {"n": 0, "sets": [[]]}),
            ("chains", {"n": -2, "sets": [[]]}),
        ],
    )
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

    def test_weight_on_a_non_basis_is_exit_two(self, capsys, tmp_path):
        bases = [[1, 2], [1, 3], [2, 3]]
        weights = {"1,2": "0", "1,3": "0", "2,3": "0", "1,4": "3"}
        bad = tmp_path / "extra.json"
        bad.write_text(json.dumps({"n": 3, "bases": bases, "weights": weights}))
        assert main(["member", str(bad), "--point", "0,0,0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert "[1, 4]" in captured.err

    def test_nested_braid_cones_are_exit_two(self, capsys, tmp_path):
        cells = [
            {"vertices": [[0, 0, 0]], "rays": [[-1, 0, 0]]},
            {"vertices": [[0, 0, 0]], "rays": [[-1, 0, 0], [-1, -1, 0]]},
        ]
        bad = tmp_path / "nested.json"
        bad.write_text(json.dumps({"n": 3, "cells": cells}))
        assert main(["recognize", str(bad)]) == 2
        assert "contain one another" in capsys.readouterr().err

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

    def test_unrealised_generic_point_is_exit_two(self, capsys, tmp_path, monkeypatch):
        # a line with four distinct coordinates breaks the heterogeneity
        # bound; with no scale matching, the witness search gives up
        cells = [
            {"vertices": [[0, 0, 0, 0]], "rays": [[0, -1, -2, -3]]},
            {"vertices": [[0, 0, 0, 0]], "rays": [[0, 1, 2, 3]]},
        ]
        path = tmp_path / "line.json"
        path.write_text(json.dumps({"n": 4, "cells": cells}))
        assert main(["recognize", str(path)]) == 1
        assert json.loads(capsys.readouterr().out)["reason"]["kind"] == "het-bound"
        monkeypatch.setattr(recognize, "heterogeneity", lambda point: -1)
        assert main(["recognize", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: no generic point")
        assert "Traceback" not in captured.err

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
