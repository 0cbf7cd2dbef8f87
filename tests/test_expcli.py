import csv
import io
import json
import math

import numpy as np
import pytest

from orbitlab import expcli
from orbitlab.expcli import (
    CSV_BATCH_ROWS,
    EXIT_ASSERTION,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_SCHEMA,
    ConfigError,
    complex_vector_csv,
    density_csv,
    hitting_csv,
    main,
    parse_vector,
    read_vector_csv,
    run_scenario,
    vector_csv,
    verify_report,
)
from orbitlab.lspace import CoefVec, Side
from orbitlab.orbits import DensityStats, HittingSet


def _csv_writer_bytes(header, rows) -> bytes:
    """What the artifacts were first written with: csv.writer plus repr."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    for row in rows:
        w.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue().encode()


def _vector_rows(x):
    return [[int(i), float(lm), float(ph)]
            for i, lm, ph in zip(x.indices, x.log_mags, x.phases)]


# edge values: signed zero, the smallest subnormal, near-overflow, 1/3, log
# magnitudes near -1e6 and negative bilateral indices
EDGE = CoefVec(
    Side.BILATERAL,
    np.array([-(10**12), -7, -1, 0, 3, 10**15]),
    np.array([-1e6 + 0.1, -0.0, 5e-324, 1e308, 1 / 3, -999999.75]),
    np.array([-0.0, 1 / 3, -3.141592653589793, 5e-324, 2.5, 1e-300]),
)


class TestVectorLiterals:
    def test_basis(self):
        v = parse_vector("e(3)")
        assert v.to_complex_dict() == {3: 1 + 0j}

    def test_sum(self):
        v = parse_vector("e(1)+e(2)")
        assert set(v.to_complex_dict()) == {1, 2}

    def test_scaled_terms(self):
        v = parse_vector("0.5*e(2)+1j*e(4)")
        d = v.to_complex_dict()
        assert d[2] == pytest.approx(0.5)
        assert d[4] == pytest.approx(1j)

    def test_parenthesized_complex_coefficient(self):
        v = parse_vector("(1+2j)*e(4)+e(1)")
        d = v.to_complex_dict()
        assert d[4] == pytest.approx(1 + 2j)
        assert d[1] == pytest.approx(1.0)

    def test_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_vector("f(1)")
        with pytest.raises(ConfigError):
            parse_vector("e(one)")


class TestVectorCSV:
    def test_round_trip(self, tmp_path):
        x = CoefVec.from_log_entries(
            Side.UNILATERAL, [1, 5, 9], [-2.5, -700.25, 3.125], [0.5, -1.25, 3.0]
        )
        name = vector_csv(tmp_path, "v.csv", x)
        back = read_vector_csv(tmp_path / name, Side.UNILATERAL)
        assert np.array_equal(back.indices, x.indices)
        assert np.array_equal(back.log_mags, x.log_mags)
        assert np.array_equal(back.phases, x.phases)

    def test_complex_dump_column_order(self, tmp_path):
        from orbitlab.expcli import complex_vector_csv

        x = CoefVec.from_pairs(Side.UNILATERAL, [(2, 1.5 - 0.25j), (7, 2j)])
        name = complex_vector_csv(tmp_path, "c.csv", x)
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == "index,re,im"
        idx, re_, im_ = lines[1].split(",")
        assert idx == "2"
        assert float(re_) == pytest.approx(1.5, rel=1e-12)
        assert float(im_) == pytest.approx(-0.25, rel=1e-12)


class TestCsvWriter:
    def test_vector_bytes_match_csv_writer(self, tmp_path):
        vector_csv(tmp_path, "v.csv", EDGE)
        assert (tmp_path / "v.csv").read_bytes() == _csv_writer_bytes(
            ["index", "log_mag", "phase"], _vector_rows(EDGE)
        )

    def test_complex_bytes_match_csv_writer(self, tmp_path):
        x = CoefVec(
            Side.BILATERAL, np.array([-4, -1, 2, 9, 30]),
            np.array([-1e6, -0.0, 1 / 3, 349.5, -700.0]),
            np.array([-0.0, 3.141592653589793, -2.0, 1 / 3, 5e-324]),
        )
        complex_vector_csv(tmp_path, "c.csv", x)
        rows = [[i, v.real, v.imag] for i, v in sorted(x.to_complex_dict().items())]
        assert (tmp_path / "c.csv").read_bytes() == _csv_writer_bytes(
            ["index", "re", "im"], rows
        )

    def test_density_bytes_match_csv_writer(self, tmp_path):
        rng = np.random.default_rng(3)
        grid = np.unique(rng.integers(10, 10**9, 3000))
        counts = (grid * rng.random(grid.size)).astype(np.int64)
        ds = DensityStats(grid, counts, 0.0, 1.0, (10, int(grid[-1])))
        density_csv(tmp_path, "d.csv", ds)
        rows = [[int(n), int(c), float(c) / float(n)] for n, c in zip(grid, counts)]
        assert (tmp_path / "d.csv").read_bytes() == _csv_writer_bytes(
            ["N", "count", "density"], rows
        )

    def test_hits_across_batches(self, tmp_path):
        n = 2 * CSV_BATCH_ROWS + 7
        h = HittingSet(np.arange(1, 3 * n, 3), 3 * n)
        hitting_csv(tmp_path, "h.csv", h)
        assert (tmp_path / "h.csv").read_bytes() == _csv_writer_bytes(
            ["n"], [[int(i)] for i in h.indices]
        )
        assert np.array_equal(expcli._load_hits(tmp_path / "h.csv"), h.indices)

    @pytest.mark.parametrize("batch", [1, 2, 5, 6])
    def test_batch_boundaries_invisible(self, tmp_path, monkeypatch, batch):
        monkeypatch.setattr(expcli, "CSV_BATCH_ROWS", batch)
        vector_csv(tmp_path, "v.csv", EDGE)
        assert (tmp_path / "v.csv").read_bytes() == _csv_writer_bytes(
            ["index", "log_mag", "phase"], _vector_rows(EDGE)
        )
        back = expcli._read_csv_columns(
            tmp_path / "v.csv", {"phase": float, "index": int, "log_mag": float}
        )
        assert [c.tobytes() for c in back] == [
            EDGE.phases.tobytes(), EDGE.indices.tobytes(), EDGE.log_mags.tobytes()
        ]

    def test_empty_vector_writes_header_only(self, tmp_path):
        vector_csv(tmp_path, "v.csv", CoefVec.zero(Side.UNILATERAL))
        assert (tmp_path / "v.csv").read_bytes() == b"index,log_mag,phase\r\n"
        back = read_vector_csv(tmp_path / "v.csv", Side.UNILATERAL)
        assert back.nnz == 0

    def test_no_numpy_reprs_in_cells(self, tmp_path):
        vector_csv(tmp_path, "v.csv", EDGE)
        complex_vector_csv(tmp_path, "c.csv", CoefVec.basis(Side.UNILATERAL, 2))
        for name in ("v.csv", "c.csv"):
            assert b"np." not in (tmp_path / name).read_bytes()

    def test_edge_values_round_trip(self, tmp_path):
        vector_csv(tmp_path, "v.csv", EDGE)
        # the raw columns, before read_vector_csv wraps the phases
        idx, lms, phs = expcli._read_csv_columns(
            tmp_path / "v.csv", {"index": int, "log_mag": float, "phase": float}
        )
        assert idx.tobytes() == EDGE.indices.tobytes()
        assert lms.tobytes() == EDGE.log_mags.tobytes()
        assert phs.tobytes() == EDGE.phases.tobytes()


class TestCsvReader:
    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    @pytest.mark.parametrize("tail", ["", "\n"])
    def test_vector_line_endings_and_column_order(self, tmp_path, eol, tail):
        lines = ["phase,index,log_mag", "0.5,1,-2.5", "-1.25,5,-700.25", "3.0,9,3.125"]
        path = tmp_path / "v.csv"
        path.write_bytes((eol.join(lines) + eol + tail.replace("\n", eol)).encode())
        back = read_vector_csv(path, Side.UNILATERAL)
        assert back.indices.tolist() == [1, 5, 9]
        assert back.log_mags.tolist() == [-2.5, -700.25, 3.125]
        assert back.phases.tolist() == [0.5, -1.25, 3.0]

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_hits_line_endings(self, tmp_path, eol):
        path = tmp_path / "h.csv"
        path.write_bytes(eol.join(["x,n", "0,2", "0,4", "0,8", ""]).encode())
        assert expcli._load_hits(path).tolist() == [2, 4, 8]

    def test_written_hits_read_back(self, tmp_path):
        h = HittingSet(np.array([1, 2, 3, 10**12]), 10**12)
        hitting_csv(tmp_path, "h.csv", h)
        hits = expcli._load_hits(tmp_path / "h.csv")
        assert hits.dtype == np.int64 and hits.tolist() == h.indices.tolist()


# the four malformed-artifact cases, as hit-set and as vector files
BAD_HITS = {
    "no_column": "m\n1\n2\n",
    "cell_count": "n\n1\n2,3\n",
    "non_numeric": "n\n1\nabc\n",
}
BAD_VECTOR = {
    "no_column": "index,log_mag\n1,0.0\n",
    "cell_count": "index,log_mag,phase\n1,0.0\n",
    "non_numeric": "index,log_mag,phase\n1,zero,0.0\n",
}
BAD_CASES = ["missing", *BAD_HITS]


def _bad_artifact(tmp_path, case, contents):
    path = tmp_path / "artifact.csv"
    if case != "missing":
        path.write_text(contents[case])
    return path


def _assert_schema_error(code, capsys):
    err = capsys.readouterr().err
    assert code == EXIT_SCHEMA
    assert "Traceback" not in err
    assert err.startswith("config error: ") and err.count("\n") == 1


class TestMalformedArtifacts:
    @pytest.mark.parametrize("case", BAD_CASES)
    def test_ap_find(self, tmp_path, capsys, case):
        path = _bad_artifact(tmp_path, case, BAD_HITS)
        code = main(["ap-find", "--hits", str(path), "--nmax", "100", "--m", "3"])
        _assert_schema_error(code, capsys)

    @pytest.mark.parametrize("case", BAD_CASES)
    def test_mr_witness_vector(self, tmp_path, capsys, case):
        path = _bad_artifact(tmp_path, case, BAD_VECTOR)
        cfg = tmp_path / "mw.json"
        cfg.write_text(json.dumps({
            "scaling": {"family": "constant", "c": [1.0, 0.0]},
            "operator": {"side": "unilateral",
                         "weights": {"family": "constant_w", "c": 1.0},
                         "premultiplier": [2.0, 0.0]},
            "vector_csv": str(path), "center": "e(1)", "eps": 0.01, "N": 100,
        }))
        code = main(["mr-witness", "--config", str(cfg), "--out", str(tmp_path / "o")])
        _assert_schema_error(code, capsys)

    @pytest.mark.parametrize("case", BAD_CASES)
    def test_verify_hits(self, tmp_path, capsys, case):
        path = _bad_artifact(tmp_path, case, BAD_HITS)
        cert = {"type": "ap_witness", "a": 1, "k": 1, "m": 1, "tau": 1,
                "hits_artifact": path.name}
        (tmp_path / "report.json").write_text(json.dumps({"certificates": [cert]}))
        code = main(["verify", "--report", str(tmp_path / "report.json")])
        _assert_schema_error(code, capsys)

    def test_verify_missing_report(self, tmp_path, capsys):
        code = main(["verify", "--report", str(tmp_path / "report.json")])
        _assert_schema_error(code, capsys)

    def test_ap_find_hits_outside_horizon(self, tmp_path, capsys):
        path = tmp_path / "h.csv"
        path.write_text("n\n5\n500\n")
        code = main(["ap-find", "--hits", str(path), "--nmax", "100", "--m", "3"])
        _assert_schema_error(code, capsys)


class TestExitCodes:
    def test_schema_error_missing_scenario(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{}")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_SCHEMA

    def test_schema_error_unknown_scenario(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"scenario": "E99"}')
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_SCHEMA

    def test_schema_error_malformed_json(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{nope")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_SCHEMA

    def test_resource_cap(self, tmp_path):
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps({"scenario": "E2", "N": 10**9}))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_RESOURCE

    def test_scenario_assertion_failure(self, tmp_path):
        # E1 demands 0 < |a| < 1; a config with a >= 1 is a schema error,
        # so break an actual scenario claim instead: E4 with weights that DO
        # pass the product test is not expressible, so force E5 with a cap
        # so large the divergence is not observed
        cfg = tmp_path / "e5.json"
        cfg.write_text(json.dumps({"scenario": "E5", "N": 10**4, "cap": 100.0}))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_ASSERTION


class TestScenarios:
    def test_e7_report_content(self, tmp_path):
        report = run_scenario({"scenario": "E7"}, tmp_path)
        assert report["verdicts"]["z+0.8"] == "frequently_hypercyclic_and_multiply_recurrent"
        assert report["verdicts"]["z/2"] == "not_recurrent"
        assert report["verdicts"]["const_i"] == "constant_recurrent"
        kinds = {c["certificate"]["kind"] for c in report["certificates"]}
        assert kinds == {"disjoint_inside", "disjoint_outside", "intersects"}

    def test_e4_reports_none_found(self, tmp_path):
        report = run_scenario({"scenario": "E4", "N": 1000}, tmp_path)
        assert report["verdicts"]["salas"] == "none found up to N_max=1000"

    def test_e6_small_end_to_end(self, tmp_path):
        cfg = {"scenario": "E6", "N": 20000, "g": 16, "eps": 1e-3,
               "witness_eps": 0.01, "witness_m": 3}
        report = run_scenario(cfg, tmp_path)
        assert report["verdicts"]["fu_build"] == "ok"
        assert (tmp_path / "hitting_0.csv").exists()
        assert (tmp_path / "witness_u.csv").exists()
        results = verify_report(tmp_path / "report.json")
        assert results and all(ok for _, ok in results)

    def test_e5_series_certificate_reverifies(self, tmp_path):
        # harmonic partial sum at N=1e5 is ~11.1, so a cap of 10 is crossed
        run_scenario({"scenario": "E5", "N": 10**5, "cap": 10.0}, tmp_path)
        results = verify_report(tmp_path / "report.json")
        assert results and all(ok for _, ok in results)

    @staticmethod
    def _bilateral_mr_report(tmp_path, radius, distances):
        # u and the center sit on negative indices, which only a bilateral
        # operator's side admits; T u lies at distance sqrt(2.01) from e(-2)
        u = CoefVec.from_pairs(Side.BILATERAL, [(-2, 1.0), (1, 0.1)])
        cert = {
            "type": "mr_witness", "ell": 1, "m": 1, "a": 1, "k": 1, "tau": 1,
            "radius": radius, "center": "e(-2)", "distances": distances,
            "u_artifact": vector_csv(tmp_path, "witness_u.csv", u),
            "operator": {"side": "bilateral",
                         "weights": {"family": "constant_w", "c": 1.0},
                         "premultiplier": [1.0, 0.0]},
        }
        (tmp_path / "report.json").write_text(json.dumps({"certificates": [cert]}))
        return ["verify", "--report", str(tmp_path / "report.json")]

    @pytest.mark.parametrize("radius, code", [(1.5, EXIT_OK), (0.5, EXIT_ASSERTION)])
    def test_bilateral_mr_witness_verifies(self, tmp_path, capsys, radius, code):
        argv = self._bilateral_mr_report(
            tmp_path, radius, [repr(0.1), repr(math.sqrt(2.01))]
        )
        assert main(argv) == code
        assert capsys.readouterr().out.startswith(
            "0:mr_witness: " + ("ok" if code == EXIT_OK else "FAILED")
        )

    @pytest.mark.parametrize("distances", [
        [],
        [repr(0.1)],
        [repr(0.1), repr(math.sqrt(2.01)), repr(0.1)],
        [repr(0.1), repr(1.4)],
        [repr(0.1 * (1 + 1e-6)), repr(math.sqrt(2.01))],
        ["0.1", "far"],
    ], ids=["empty", "short", "long", "edited", "edited_1e-6", "garbage"])
    def test_mr_witness_recorded_distances_checked(self, tmp_path, capsys, distances):
        assert main(self._bilateral_mr_report(tmp_path, 1.5, distances)) == EXIT_ASSERTION
        assert capsys.readouterr().out.startswith("0:mr_witness: FAILED")

    def test_e6_loads_each_hits_artifact_once(self, tmp_path, monkeypatch):
        run_scenario({"scenario": "E6", "N": 20000}, tmp_path)
        loads = []
        real = expcli._load_hits
        monkeypatch.setattr(expcli, "_load_hits", lambda p: loads.append(p.name) or real(p))
        results = verify_report(tmp_path / "report.json")
        assert results and all(ok for _, ok in results)
        assert sum(name.endswith("ap_witness") for name, _ in results) == 3
        assert loads == ["hitting_0.csv"]

    def test_e6_verify_catches_tampering(self, tmp_path):
        cfg = {"scenario": "E6", "N": 20000}
        run_scenario(cfg, tmp_path)
        report = json.loads((tmp_path / "report.json").read_text())
        for cert in report["certificates"]:
            if cert["type"] == "mr_witness":
                cert["radius"] = 1e-9
        (tmp_path / "report.json").write_text(json.dumps(report))
        results = verify_report(tmp_path / "report.json")
        assert any(not ok for name, ok in results if "mr_witness" in name)


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg = {"scenario": "E6", "N": 20000}
        run_scenario(cfg, tmp_path / "a")
        run_scenario(cfg, tmp_path / "b")
        assert (tmp_path / "a/report.json").read_bytes() == (
            tmp_path / "b/report.json"
        ).read_bytes()
        assert (tmp_path / "a/hitting_0.csv").read_bytes() == (
            tmp_path / "b/hitting_0.csv"
        ).read_bytes()


class TestCliSubcommands:
    def test_classify_seq(self, capsys):
        assert main(["classify-seq", "--family", "exp_over_log"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "verdict=good" in out

    def test_classify_seq_log_alias(self, capsys):
        assert main(["classify-seq", "--family", "log"]) == EXIT_OK
        assert "verdict=good" in capsys.readouterr().out

    def test_classify_seq_superexponential(self, capsys):
        assert main(["classify-seq", "--family", "exp_pow", "--a", "1.5",
                     "--horizon", "100000"]) == EXIT_OK
        assert "verdict=bad limit=0.0" in capsys.readouterr().out

    def test_classify_seq_bad(self, capsys):
        assert main(["classify-seq", "--family", "factorial", "--horizon", "10000"]) == EXIT_OK
        assert "verdict=bad limit=0.0" in capsys.readouterr().out

    def test_check_salas_none(self, capsys):
        assert main(["check-salas", "--weights", "step_bilateral", "--eps", "0.5",
                     "--q", "0", "--nmax", "1000"]) == EXIT_OK
        assert "none found" in capsys.readouterr().out

    def test_check_mr_witness(self, capsys):
        assert main(["check-mr", "--weights", "inverse_step_bilateral", "--m", "3",
                     "--q", "2", "--eps", "0.1", "--nmax", "100"]) == EXIT_OK
        assert "witness n=8" in capsys.readouterr().out

    def test_check_series(self, capsys):
        assert main(["check-series", "--weights", "sqrt_ratio", "--nmax", "100000"]) == EXIT_OK
        assert "partial_sum" in capsys.readouterr().out

    def test_parameterless_weight_flag_is_schema_error(self, capsys):
        # constant_w needs its parameter; the flag surface cannot supply it
        assert main(["check-series", "--weights", "constant_w"]) == EXIT_SCHEMA

    def test_ap_find_round_trip(self, tmp_path, capsys):
        hits = tmp_path / "hits.csv"
        hits.write_text("n\n" + "\n".join(str(n) for n in range(2, 1001, 2)) + "\n")
        assert main(["ap-find", "--hits", str(hits), "--nmax", "1000",
                     "--m", "4"]) == EXIT_OK
        assert "a=2 k=2" in capsys.readouterr().out

    def test_classify_symbol(self, capsys):
        assert main(["classify-symbol", "--coeffs", "2,1"]) == EXIT_OK
        assert "not_recurrent" in capsys.readouterr().out

    def test_build_fu_and_mr_witness_cli(self, tmp_path, capsys):
        bcfg = tmp_path / "build.json"
        bcfg.write_text(json.dumps({
            "scaling": {"family": "constant", "c": [1.0, 0.0]},
            "operator": {"side": "unilateral",
                         "weights": {"family": "constant_w", "c": 1.0},
                         "premultiplier": [2.0, 0.0]},
            "targets": [{"vector": "e(1)", "eps": 1e-3}],
            "N": 10000, "g": 16,
        }))
        out1 = tmp_path / "fu"
        assert main(["build-fu", "--config", str(bcfg), "--out", str(out1)]) == EXIT_OK
        mcfg = tmp_path / "mw.json"
        mcfg.write_text(json.dumps({
            "scaling": {"family": "constant", "c": [1.0, 0.0]},
            "operator": {"side": "unilateral",
                         "weights": {"family": "constant_w", "c": 1.0},
                         "premultiplier": [2.0, 0.0]},
            "vector_csv": str(out1 / "fu_vector.csv"),
            "center": "e(1)", "eps": 0.01, "m": 3, "N": 10000,
        }))
        out2 = tmp_path / "mw"
        assert main(["mr-witness", "--config", str(mcfg), "--out", str(out2)]) == EXIT_OK
        results = verify_report(out2 / "report.json")
        assert results and all(ok for _, ok in results)

    def test_verify_cli(self, tmp_path, capsys):
        run_scenario({"scenario": "E7"}, tmp_path)
        assert main(["verify", "--report", str(tmp_path / "report.json")]) == EXIT_OK
        assert "ok" in capsys.readouterr().out
