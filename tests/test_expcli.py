import argparse
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitlab import expcli
from orbitlab.expcli import (
    CSV_BATCH_ROWS,
    EXIT_ASSERTION,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_SCHEMA,
    RESOURCE_CAP_N,
    ConfigError,
    certificate,
    complex_vector_csv,
    density_csv,
    hitting_csv,
    main,
    parse_vector,
    read_vector_csv,
    run_scenario,
    scenario_params,
    vector_csv,
    verify_report,
    write_csv,
)
from orbitlab.criteria import fhc_series_check, mr_shift_check, salas_check
from orbitlab.lspace import CoefVec, Side
from orbitlab.orbits import APWitness, DensityStats, HittingSet, MRWitness
from orbitlab.shiftops import WeightSeq
from orbitlab.symbolops import PolySymbol, classify_adjoint
from oracles import read_csv_columns, to_complex_dict


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


# an index or progression parameter no int64 holds; numpy refuses an array
# of this length without allocating it
BEYOND_INT64 = 2**70

# vector literals whose coefficients complex() reads but which are no finite
# numbers (the last one's terms are, their sum is not)
NON_FINITE_LITERALS = ["inf*e(1)", "nan*e(1)", "1e400*e(1)", "(1+infj)*e(2)",
                       "1e308*e(1)+1e308*e(1)"]


class TestVectorLiterals:
    def test_basis(self):
        v = parse_vector("e(3)")
        assert to_complex_dict(v) == {3: 1 + 0j}

    def test_sum(self):
        v = parse_vector("e(1)+e(2)")
        assert set(to_complex_dict(v)) == {1, 2}

    def test_scaled_terms(self):
        v = parse_vector("0.5*e(2)+1j*e(4)")
        d = to_complex_dict(v)
        assert d[2] == pytest.approx(0.5)
        assert d[4] == pytest.approx(1j)

    def test_parenthesized_complex_coefficient(self):
        v = parse_vector("(1+2j)*e(4)+e(1)")
        d = to_complex_dict(v)
        assert d[4] == pytest.approx(1 + 2j)
        assert d[1] == pytest.approx(1.0)

    def test_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_vector("f(1)")
        with pytest.raises(ConfigError):
            parse_vector("e(one)")

    def test_index_beyond_int64(self):
        with pytest.raises(ConfigError, match="bad vector"):
            parse_vector(f"e({BEYOND_INT64})")

    @pytest.mark.parametrize("spec", NON_FINITE_LITERALS)
    def test_rejects_non_finite_coefficients(self, spec):
        with pytest.raises(ConfigError, match="finite"):
            parse_vector(spec)


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
        rows = [[i, v.real, v.imag] for i, v in sorted(to_complex_dict(x).items())]
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


SHIPPED_CONFIGS = sorted((Path(__file__).parents[1] / "configs").glob("e*.json"))

# cells over int64's and float64's whole range, with their edges drawn often
INT64_CELLS = st.one_of(st.sampled_from([-(2**63), 2**63 - 1, 0, -1]),
                        st.integers(-(2**63), 2**63 - 1))
FLOAT_CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     sys.float_info.max, -sys.float_info.max]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _beside(v: float):
    """v or the double next to it on either side."""
    return st.sampled_from([math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)])


# every kind of float cell the writer decides or leaves to repr: signed
# zeros, subnormals, non-finite values, powers of two, the ends of repr's
# fixed notation (1e-4 and 1e16) and short decimals, each with the doubles
# beside it, and any double at all
WRITER_FLOAT_CELLS = st.tuples(st.booleans(), st.one_of(
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1e-4, 1e16, math.inf, math.nan,
                     2.0**52 + 1.0, 1e15 + 0.5]).flatmap(_beside),
    st.integers(-1074, 1023).map(lambda e: 2.0**e).flatmap(_beside),
    st.integers(-(10**9), 10**9).map(lambda i: i / 1000).flatmap(_beside),
    st.floats(),
)).map(lambda c: -c[1] if c[0] else c[1])


class TestCsvWriterBytes:
    """write_csv against the per-cell repr oracle, in batches of any size,
    with the float kernel on every batch or only from CSV_KERNEL_MIN_ROWS."""

    @settings(deadline=None, max_examples=150)
    @given(kinds=st.lists(st.booleans(), min_size=1, max_size=4), batch=st.integers(1, 9),
           extra=st.integers(-1, 1), kernel_on_all=st.booleans(), data=st.data())
    def test_matches_repr_oracle(self, tmp_path_factory, kinds, batch, extra, kernel_on_all,
                                 data):
        nrows = max(0, batch * data.draw(st.integers(0, 3)) + extra)
        cols = [np.array(data.draw(st.lists(WRITER_FLOAT_CELLS if fl else INT64_CELLS,
                                            min_size=nrows, max_size=nrows)),
                         np.float64 if fl else np.int64) for fl in kinds]
        header = [f"c{j}" for j in range(len(cols))]
        out = tmp_path_factory.getbasetemp() / "csv_writer_bytes"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(expcli, "CSV_BATCH_ROWS", batch)
            if kernel_on_all:
                mp.setattr(expcli, "CSV_KERNEL_MIN_ROWS", 1)
            write_csv(out, "t.csv", header, cols)
        rows = [[c.item() for c in row] for row in zip(*cols)]
        assert (out / "t.csv").read_bytes() == _csv_writer_bytes(header, rows)

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_whole_batches(self, tmp_path, extra):
        # full batches: cells drawn from the edge values of both kinds
        n = CSV_BATCH_ROWS + extra
        rng = np.random.default_rng(7)
        ints = np.array([-(2**63), 2**63 - 1, 0, -1, 10**18, -(10**18) + 1, 9, 10])
        edges = np.array([0.0, -0.0, 5e-324, -2.2250738585072014e-308, math.inf, math.nan,
                          0.5, 2.0**-14, 1e-4, 1e16, 9999999999999998.0, 1e15 + 0.5, 0.1, 1 / 3])
        floats = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
        cols = [rng.choice(ints, n), rng.choice(floats, n) * rng.choice([1.0, -1.0], n),
                rng.uniform(-4.0, 4.0, n) * 10.0 ** rng.integers(-6, 18, n)]
        write_csv(tmp_path, "t.csv", ["i", "edge", "any"], cols)
        rows = [[c.item() for c in row] for row in zip(*cols)]
        assert (tmp_path / "t.csv").read_bytes() == _csv_writer_bytes(["i", "edge", "any"], rows)


@st.composite
def _csv_tables(draw):
    """Columns for write_csv and the wanted ones among them, in any order;
    the others are not read as numbers, so they may hold inf and nan. Then
    the row ending, the positions of blank lines and whether the last row
    ends in one."""
    kinds = draw(st.lists(st.sampled_from([int, float]), min_size=1, max_size=5))
    header = [f"c{j}" for j in range(len(kinds))]
    order = draw(st.permutations(range(len(kinds))))
    chosen = order[:draw(st.integers(1, len(kinds)))]
    nrows = draw(st.integers(0, 12))
    cols = []
    for j, kind in enumerate(kinds):
        cells = INT64_CELLS if kind is int else FLOAT_CELLS if j in chosen else st.floats()
        cols.append(np.array(draw(st.lists(cells, min_size=nrows, max_size=nrows)),
                             np.int64 if kind is int else np.float64))
    blanks = draw(st.lists(st.integers(1, nrows + 1), max_size=3))
    return (header, cols, {header[j]: kinds[j] for j in chosen},
            draw(st.sampled_from(["\n", "\r\n"])), blanks, draw(st.booleans()))


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

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_header_only_hits_are_empty(self, tmp_path, eol):
        path = tmp_path / "h.csv"
        path.write_bytes(f"n{eol}".encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hits = expcli._load_hits(path)
        assert hits.dtype == np.int64 and hits.size == 0

    @settings(deadline=None)
    @given(table=_csv_tables())
    def test_matches_per_cell_oracle(self, tmp_path_factory, table):
        header, cols, wanted, eol, blanks, final_eol = table
        out = tmp_path_factory.getbasetemp() / "csv_oracle"
        path = out / write_csv(out, "t.csv", header, cols)
        lines = path.read_bytes().decode().split("\r\n")[:-1]
        for at in sorted(blanks, reverse=True):
            lines.insert(min(at, len(lines)), "")
        path.write_bytes((eol.join(lines) + eol * final_eol).encode())
        got = expcli._read_csv_columns(path, wanted)
        ref = read_csv_columns(path, wanted)
        written = [cols[header.index(col)] for col in wanted]
        assert [(a.dtype, a.tobytes()) for a in got] == [(a.dtype, a.tobytes()) for a in ref]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in written]

    # E4, E5 and E7 write no CSV
    @pytest.mark.parametrize("config", [p for p in SHIPPED_CONFIGS
                                        if p.stem in ("e1", "e2", "e3", "e6")],
                             ids=lambda p: p.stem)
    def test_shipped_artifacts_match_per_cell_oracle(self, tmp_path, config):
        assert main(["run", "--config", str(config), "--out", str(tmp_path)]) == EXIT_OK
        paths = sorted(tmp_path.glob("*.csv"))
        assert paths
        for path in paths:
            header = path.read_text().splitlines()[0].split(",")
            wanted = {col: int if col in ("n", "index", "N", "count") else float for col in header}
            got = expcli._read_csv_columns(path, wanted)
            ref = read_csv_columns(path, wanted)
            assert [(a.dtype, a.tobytes()) for a in got] == [
                (a.dtype, a.tobytes()) for a in ref], path.name


# the malformed-artifact cases besides a missing file, as hit-set and as
# vector files
BAD_HITS = {
    "no_column": "m\n1\n2\n",
    "cell_count": "n\n1\n2,3\n",
    "non_numeric": "n\n1\nabc\n",
    "unsorted": "n\n1\n3\n2\n",
    "duplicate": "n\n1\n2\n2\n",
    "index_beyond_int64": f"n\n1\n{2**63}\n",
    # cells that are no plain ASCII decimal, or rows that are no rows of cells
    "whitespace_row": "n\n1\n \n",
    "comment_row": "n\n1\n#2\n",
    "quoted_cell": 'n\n1\n"2"\n',
    "trailing_comma": "n\n1\n2,\n",
    "empty_cell": "n,x\n1,a\n,b\n",
    "digit_separator": "n\n1\n1_0\n",
    "arabic_indic_digit": "n\n1\n\u0663\n",
    "index_below_int64": f"n\n1\n{-(2**63) - 1}\n",
    "inf": "n\n1\ninf\n",
    "nan": "n\n1\nnan\n",
    "1e400": "n\n1\n1e400\n",
}
BAD_VECTOR = {
    "no_column": "index,log_mag\n1,0.0\n",
    "cell_count": "index,log_mag,phase\n1,0.0\n",
    "non_numeric": "index,log_mag,phase\n1,zero,0.0\n",
    "unsorted": "index,log_mag,phase\n1,0.0,0.0\n3,0.0,0.0\n2,0.0,0.0\n",
    "duplicate": "index,log_mag,phase\n1,0.0,0.0\n2,0.0,0.0\n2,0.0,0.0\n",
    "index_beyond_int64": f"index,log_mag,phase\n1,0.0,0.0\n{2**63},0.0,0.0\n",
    "whitespace_row": "index,log_mag,phase\n1,0.0,0.0\n \n",
    "comment_row": "index,log_mag,phase\n1,0.0,0.0\n#2,0.0,0.0\n",
    "quoted_cell": 'index,log_mag,phase\n1,"0.0",0.0\n',
    "trailing_comma": "index,log_mag,phase\n1,0.0,0.0,\n",
    "empty_cell": "index,log_mag,phase\n1,,0.0\n",
    "digit_separator": "index,log_mag,phase\n1,1_0.5,0.0\n",
    "arabic_indic_digit": "index,log_mag,phase\n\u0663,0.0,0.0\n",
    "index_below_int64": f"index,log_mag,phase\n{-(2**63) - 1},0.0,0.0\n",
}
# vector files whose cells float() reads but which are no finite numbers
NON_FINITE_VECTOR = {
    "log_mag_inf": "index,log_mag,phase\n1,inf,0.0\n",
    "log_mag_minus_inf": "index,log_mag,phase\n1,-inf,0.0\n",
    "log_mag_1e400": "index,log_mag,phase\n1,1e400,0.0\n",
    "phase_nan": "index,log_mag,phase\n1,0.0,nan\n",
}
BAD_VECTOR.update(NON_FINITE_VECTOR)
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

    @pytest.mark.parametrize("case", ["missing", *BAD_VECTOR])
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

    @pytest.mark.parametrize("case", ["missing", *BAD_VECTOR])
    def test_verify_u_artifact(self, tmp_path, capsys, case):
        argv = TestScenarios._bilateral_mr_report(
            tmp_path, 1.5, [repr(0.1), repr(math.sqrt(2.01))]
        )
        path = tmp_path / "witness_u.csv"
        path.unlink()
        if case != "missing":
            path.write_text(BAD_VECTOR[case])
        _assert_schema_error(main(argv), capsys)

    def test_index_beyond_int64_message(self, tmp_path, capsys):
        # numpy's parser names the cell's text, its data row (from 0, blank
        # lines left out) and its column (from 1)
        path = _bad_artifact(tmp_path, "index_beyond_int64", BAD_HITS)
        assert main(["ap-find", "--hits", str(path), "--nmax", "100", "--m", "3"]) == EXIT_SCHEMA
        assert capsys.readouterr().err == (
            f"config error: artifact {path}: could not convert string "
            f"'{2**63}' to int64 at row 1, column 1.\n")

    def test_verify_missing_report(self, tmp_path, capsys):
        code = main(["verify", "--report", str(tmp_path / "report.json")])
        _assert_schema_error(code, capsys)

    def test_ap_find_hits_outside_horizon(self, tmp_path, capsys):
        path = tmp_path / "h.csv"
        path.write_text("n\n5\n500\n")
        code = main(["ap-find", "--hits", str(path), "--nmax", "100", "--m", "3"])
        _assert_schema_error(code, capsys)


def _mr_config(tmp_path, **extra):
    x = vector_csv(tmp_path, "x.csv", CoefVec.from_pairs(Side.UNILATERAL, [(3, 1.0)]))
    cfg = tmp_path / "mw.json"
    cfg.write_text(json.dumps({
        "scaling": {"family": "constant", "c": [1.0, 0.0]},
        "operator": {"side": "unilateral",
                     "weights": {"family": "constant_w", "c": 1.0},
                     "premultiplier": [2.0, 0.0]},
        "vector_csv": str(tmp_path / x), "center": "e(1)", "eps": 0.01, "N": 100,
        **extra,
    }))
    return ["mr-witness", "--config", str(cfg), "--out", str(tmp_path / "o")]


class TestBadProgressionParameters:
    @pytest.mark.parametrize("flag", ["--m", "--tau"])
    def test_ap_find(self, tmp_path, capsys, flag):
        path = tmp_path / "h.csv"
        path.write_text("n\n1\n2\n3\n")
        argv = ["ap-find", "--hits", str(path), "--nmax", "100", "--m", "2", flag, "0"]
        _assert_schema_error(main(argv), capsys)

    @pytest.mark.parametrize("extra", [{"m": -1}, {"tau": 0}, {"m": "x"}],
                             ids=["m_negative", "tau_zero", "m_string"])
    def test_mr_witness(self, tmp_path, capsys, extra):
        _assert_schema_error(main(_mr_config(tmp_path, **extra)), capsys)


AP_CERT = {"type": "ap_witness", "a": 48, "k": 1, "m": 1, "tau": 1,
           "hits_artifact": "hits.csv"}


class TestMalformedCertificates:
    @staticmethod
    def _ap_report(tmp_path, hits=(48, 49), **fields):
        (tmp_path / "hits.csv").write_text("n\n" + "".join(f"{n}\n" for n in hits))
        cert = {key: v for key, v in {**AP_CERT, **fields}.items() if v is not None}
        (tmp_path / "report.json").write_text(json.dumps({"certificates": [cert]}))
        return ["verify", "--report", str(tmp_path / "report.json")]

    @staticmethod
    def _mr_report(tmp_path, **fields):
        argv = TestScenarios._bilateral_mr_report(
            tmp_path, 1.5, [repr(0.1), repr(math.sqrt(2.01))]
        )
        report = json.loads((tmp_path / "report.json").read_text())
        cert = {key: v for key, v in {**report["certificates"][0], **fields}.items()
                if v is not None}
        (tmp_path / "report.json").write_text(json.dumps({"certificates": [cert]}))
        return argv

    def test_well_formed_certificates_verify(self, tmp_path, capsys):
        assert main(self._ap_report(tmp_path)) == EXIT_OK
        assert main(self._mr_report(tmp_path)) == EXIT_OK

    @pytest.mark.parametrize("fields", [
        {"hits_artifact": None}, {"a": None}, {"m": "x"}, {"k": 1.0}, {"tau": True},
        {"hits_artifact": 3},
    ], ids=["no_hits_artifact", "no_a", "m_string", "k_float", "tau_bool", "artifact_int"])
    def test_ap_witness_bad_field(self, tmp_path, capsys, fields):
        _assert_schema_error(main(self._ap_report(tmp_path, **fields)), capsys)

    @pytest.mark.parametrize("fields", [
        {"m": "x"}, {"ell": None}, {"ell": 1.0}, {"m": False}, {"radius": "1.5"},
        {"center": None}, {"u_artifact": None}, {"operator": "bilateral"},
        {"center": "inf*e(-2)"},
        {"distances": None}, {"distances": "0.1"}, {"distances": 0.1},
        {"distances": {"a": 1}},
    ], ids=["m_string", "no_ell", "ell_float", "m_bool", "radius_string",
            "no_center", "no_u_artifact", "operator_string", "center_inf",
            "no_distances", "distances_string", "distances_number", "distances_object"])
    def test_mr_witness_bad_field(self, tmp_path, capsys, fields):
        _assert_schema_error(main(self._mr_report(tmp_path, **fields)), capsys)

    @pytest.mark.parametrize("fields", [{"k": 0}, {"m": 0}, {"tau": 0}, {"k": -1}],
                             ids=["k_zero", "m_zero", "tau_zero", "k_negative"])
    def test_ap_witness_degenerate(self, tmp_path, capsys, fields):
        # with k = 0 every term is a = 48, a member: a progression in name only
        assert main(self._ap_report(tmp_path, **fields)) == EXIT_ASSERTION
        assert capsys.readouterr().out.startswith("0:ap_witness: FAILED")

    @pytest.mark.parametrize("fields", [
        {"ell": 0, "distances": [repr(0.1), repr(0.1)]},
        {"m": -1, "distances": []},
    ], ids=["ell_zero", "m_negative"])
    def test_mr_witness_degenerate(self, tmp_path, capsys, fields):
        # T^0 u = u and an empty progression both repeat the start distance
        assert main(self._mr_report(tmp_path, **fields)) == EXIT_ASSERTION
        assert capsys.readouterr().out.startswith("0:mr_witness: FAILED")

    @pytest.mark.parametrize("hits, fields", [
        # int64 members 5 + 2**62*j wrap onto the hits below 5 and past it:
        # four hits certified as a five-term progression
        ((-(2**63) + 5, -(2**62) + 5, 5, 2**62 + 5), {"a": 5, "k": 2**60, "tau": 4, "m": 4}),
        ((48, 49), {"k": 2**64}),
        ((48, 49), {"tau": BEYOND_INT64}),
        ((-1, 0, 1), {"a": -1, "m": 2}),
    ], ids=["members_wrap", "k_beyond_int64", "tau_beyond_int64", "start_below_1"])
    def test_ap_witness_outside_int64(self, tmp_path, capsys, hits, fields):
        assert main(self._ap_report(tmp_path, hits, **fields)) == EXIT_ASSERTION
        captured = capsys.readouterr()
        assert captured.out.startswith("0:ap_witness: FAILED") and not captured.err

    def test_mr_witness_ell_beyond_int64(self, tmp_path, capsys):
        assert main(self._mr_report(tmp_path, ell=BEYOND_INT64)) == EXIT_ASSERTION
        captured = capsys.readouterr()
        assert captured.out.startswith("0:mr_witness: FAILED") and not captured.err

    def test_mr_witness_shifted_index_beyond_int64(self, tmp_path, capsys):
        # T^ell e(-5) is e(-2**63 - 4), which an int64 index would wrap onto
        # the center e(2**63 - 4): the recorded distance 1.0 at j = 1 is
        # sqrt(3) in truth
        u = CoefVec.from_pairs(Side.BILATERAL, [(-5, 1.0), (1, 1.0)])
        cert = {
            "type": "mr_witness", "ell": 2**63 - 1, "m": 1, "a": 1, "k": 1, "tau": 1,
            "radius": 2.0, "center": f"e({2**63 - 4})",
            "distances": [repr(math.sqrt(3.0)), repr(1.0)],
            "u_artifact": vector_csv(tmp_path, "witness_u.csv", u),
            "operator": {"side": "bilateral",
                         "weights": {"family": "constant_w", "c": 1.0},
                         "premultiplier": [1.0, 0.0]},
        }
        assert main(_verify_argv(tmp_path, {"certificates": [cert]})) == EXIT_ASSERTION
        assert capsys.readouterr().out.startswith("0:mr_witness: FAILED")


INVERSE_STEP = WeightSeq.inverse_step_bilateral()
_PHI = PolySymbol((0.8, 1))
CERTS = {
    # a salas certificate is the order-1 mr_shift one without its m
    "salas": certificate("salas", salas_check(INVERSE_STEP, 0.5, 0, 200).certificate),
    "mr_shift": certificate("mr_shift", mr_shift_check(INVERSE_STEP, 2, 0, 0.5, 100).certificate),
    "range": certificate("range", symbol="z+0.8", phi=_PHI.coeffs,
                         certificate=classify_adjoint(_PHI).certificate),
    # the harmonic partial sum passes 5 before n = 10**4
    "series": certificate("series", fhc_series_check(WeightSeq.sqrt_ratio(), 10**4, cap=5.0),
                          weights=WeightSeq.sqrt_ratio()),
}


def _verify_argv(tmp_path, report):
    (tmp_path / "report.json").write_text(json.dumps(report))
    return ["verify", "--report", str(tmp_path / "report.json")]


def _edited(kind, fields):
    """A copy of CERTS[kind] with fields replaced; None deletes a field.
    A key "certificate.x" edits the nested range certificate."""
    cert = json.loads(json.dumps(CERTS[kind]))
    for key, v in fields.items():
        rec = cert
        if key.startswith("certificate."):
            rec, key = cert["certificate"], key.removeprefix("certificate.")
        if v is None:
            rec.pop(key, None)
        else:
            rec[key] = v
    return cert


class TestMalformedOtherCertificates:
    def test_well_formed_certificates_verify(self, tmp_path, capsys):
        argv = _verify_argv(tmp_path, {"certificates": list(CERTS.values())})
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == [
            "0:salas: ok", "1:mr_shift: ok", "2:range: ok", "3:series: ok"]

    @pytest.mark.parametrize("kind, fields", [
        ("salas", {"weights": None}),
        ("salas", {"weights": {"family": "nope"}}),
        ("salas", {"n": "2"}),
        ("salas", {"eps": True}),
        ("salas", {"eps": 5e-324}),
        ("salas", {"forward_logs": "x"}),
        ("salas", {"backward_logs": ["x"]}),
        ("mr_shift", {"m": None}),
        ("mr_shift", {"q": 1.0}),
        ("range", {"certificate": None}),
        ("range", {"phi": "z+0.8"}),
        ("range", {"certificate.kind": "weird"}),
        ("range", {"certificate.tol": None}),
        ("range", {"certificate.witness": "i"}),
        ("series", {"n_max": None}),
        ("series", {"kind": 3}),
        ("series", {"partial_sum": "1.0"}),
        ("series", {"weights": "sqrt_ratio"}),
    ], ids=["salas_no_weights", "salas_bad_family", "salas_n_string", "salas_eps_bool",
            "salas_eps_subnormal", "salas_logs_string", "salas_log_string", "mr_shift_no_m",
            "mr_shift_q_float", "range_no_certificate", "range_phi_string", "range_bad_kind",
            "range_no_tol", "range_witness_string", "series_no_n_max", "series_kind_int",
            "series_sum_string", "series_weights_string"])
    def test_bad_field(self, tmp_path, capsys, kind, fields):
        argv = _verify_argv(tmp_path, {"certificates": [_edited(kind, fields)]})
        _assert_schema_error(main(argv), capsys)

    @pytest.mark.parametrize("kind, message", [
        (3, "range certificate: 'certificate': range test: 'kind' must be one of "
            "intersects, disjoint_inside, disjoint_outside, uncertain, got 3"),
        ("bogus", "range certificate: 'certificate': range test: 'kind' must be one of "
                  "intersects, disjoint_inside, disjoint_outside, uncertain, got \"bogus\""),
    ], ids=["kind_int", "kind_unknown"])
    def test_range_kind_message(self, tmp_path, capsys, kind, message):
        # the resolver names the certificate, then the nested field
        cert = {"type": "range", "phi": [1], "certificate": {"kind": kind}}
        assert main(_verify_argv(tmp_path, {"certificates": [cert]})) == EXIT_SCHEMA
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("kind, fields", [
        ("salas", {"n": 0}),
        ("salas", {"eps": 1.5}),
        ("salas", {"forward_logs": []}),
        ("salas", {"weights": {"family": "sqrt_ratio"}}),
        ("mr_shift", {"m": 0}),
        ("series", {"n_max": 5}),
    ], ids=["salas_n_zero", "salas_eps_above_one", "salas_short_logs",
            "salas_one_sided_weights", "mr_shift_m_zero", "series_n_max_5"])
    def test_degenerate(self, tmp_path, capsys, kind, fields):
        argv = _verify_argv(tmp_path, {"certificates": [_edited(kind, fields)]})
        assert main(argv) == EXIT_ASSERTION
        assert capsys.readouterr().out.startswith(f"0:{kind}: FAILED")

    @pytest.mark.parametrize("kind", ["salas", "mr_shift", "series"])
    def test_weight_table_too_short(self, tmp_path, capsys, kind):
        # a table_w table that ends before the indices the certificate needs
        short = {"family": "table_w", "values": [2, 2, 2], "start": -1}
        argv = _verify_argv(tmp_path, {"certificates": [_edited(kind, {"weights": short})]})
        _assert_schema_error(main(argv), capsys)

    @pytest.mark.parametrize("kind", ["salas", "mr_shift", "series"])
    def test_weight_table_start_after_one(self, tmp_path, capsys, kind):
        # weight products are anchored at 0, so a table must start by w_1
        late = {"family": "table_w", "values": [2] * 40, "start": 5}
        argv = _verify_argv(tmp_path, {"certificates": [_edited(kind, {"weights": late})]})
        _assert_schema_error(main(argv), capsys)

    def test_series_beyond_cap(self, tmp_path, capsys):
        argv = _verify_argv(tmp_path, {"certificates": [_edited("series", {"n_max": 10**9})]})
        assert main(argv) == EXIT_RESOURCE

    @pytest.mark.parametrize("report", [
        [], {"certificates": "x"}, {"certificates": [3]}, {"certificates": {"type": "salas"}},
    ], ids=["root_list", "certificates_string", "certificate_int", "certificates_object"])
    def test_bad_report_shape(self, tmp_path, capsys, report):
        _assert_schema_error(main(_verify_argv(tmp_path, report)), capsys)

    @pytest.mark.parametrize("kind", CERTS)
    def test_unknown_field(self, tmp_path, capsys, kind):
        argv = _verify_argv(tmp_path, {"certificates": [_edited(kind, {"note": "x"})]})
        _assert_schema_error(main(argv), capsys)

    @pytest.mark.parametrize("cert", [{"type": "nope"}, {"type": 3}, {"type": ["salas"]}, {}],
                             ids=["unknown", "int", "list", "missing"])
    def test_unknown_type_fails(self, tmp_path, capsys, cert):
        assert main(_verify_argv(tmp_path, {"certificates": [cert]})) == EXIT_ASSERTION
        assert capsys.readouterr().out == f"0:{cert.get('type')}: FAILED\n"

    @pytest.mark.parametrize("fields", [
        {"crossed_cap_at": 7},
        {"grid_sums": [0.0] * len(CERTS["series"]["grid_sums"])},
        {"mode": "geometric"},
        {"tail_bound": 1e-30},
        {"grid": CERTS["series"]["grid"][:-1]},
        {"kind": "converges_certified"},
    ], ids=["crossed_cap_at", "grid_sums", "mode", "tail_bound", "grid", "kind"])
    def test_forged_series_fails(self, tmp_path, capsys, fields):
        # every recorded field is compared with the re-run scan
        argv = _verify_argv(tmp_path, {"certificates": [_edited("series", fields)]})
        assert main(argv) == EXIT_ASSERTION
        assert capsys.readouterr().out == "0:series: FAILED\n"

    @pytest.mark.parametrize("phi, out", [
        ([[0.0, 0.0], [0.5, 0.0]], "0:range: ok\n"),
        ([[0.0, 0.0], [2.0, 0.0]], "0:range: FAILED\n"),
        ([[0.5, 0.0]], "0:range: FAILED\n"),
    ], ids=["recorded", "swapped_to_2z", "constant"])
    def test_range_recomputed_from_phi(self, tmp_path, capsys, phi, out):
        # z/2's disjoint_inside evidence, recorded numbers and all, does not
        # hold for 2z: verify recomputes the boundary from phi
        run_scenario({"scenario": "E7"}, tmp_path)
        report = json.loads((tmp_path / "report.json").read_text())
        (cert,) = [c for c in report["certificates"] if c["symbol"] == "z/2"]
        cert["phi"] = phi
        main(_verify_argv(tmp_path, {"certificates": [cert]}))
        assert capsys.readouterr().out == out

    @pytest.mark.parametrize("fields", [
        {"certificate.kind": "disjoint_inside", "certificate.grid": 8},
        # |phi(0)| = 0.8 is within a recorded tol of 1 of the circle
        {"certificate.tol": 1.0, "certificate.witness": [0.0, 0.0]},
    ], ids=["grid_too_coarse", "tol_too_loose"])
    def test_range_fails(self, tmp_path, capsys, fields):
        cert = _edited("range", fields)
        assert main(_verify_argv(tmp_path, {"certificates": [cert]})) == EXIT_ASSERTION


# the shipped configs at horizons small enough for a quick run
SMALL_RUNS = {
    "e1": {"N": 2_000},
    "e2": {"N": 2_000, "recurrence_N": 100, "ratio_N": 1_000},
    "e3": {"N": 20_000, "ratio_N": 10_000},
    "e4": {"N": 1_000},
    "e5": {"N": 2_000, "cap": 5.0},
    "e6": {"N": 10_000},
    "e7": {},
}

# each report verdict that a certificate backs, and the certificate's kind
CERTIFIED = {"series": "series", "ap_search": "ap_witness", "mr_witness": "mr_witness",
             "z/2": "range", "z+2": "range", "z+0.8": "range"}
_SELF_CHECK = "a scenario self-check that ends the run if it fails; nothing is recorded"
_RATIO = "ratio_classify's verdict; a certificate that re-runs it is still to come"
_NEGATIVE = "a search that found nothing records nothing to re-check"
_FU = "the hitting sets are written, but no certificate ties them to the plan yet"
NOT_CERTIFIABLE = {
    "scaled_power_identity": _SELF_CHECK,
    "embedding_identity": _SELF_CHECK,
    "product_formula": _SELF_CHECK,
    "norm_decay": _SELF_CHECK,
    "fu_build": _FU,
    "fu_build_on_evens": _FU,
    "ratio": _RATIO,
    "ratio_full": _RATIO,
    "ratio_evens": _RATIO,
    "recurrence_scan": _NEGATIVE,
    "salas": _NEGATIVE,
    "context": "prose about the operator, not a claim",
    "const_i": "a constant symbol is decided by |a| alone; no range test runs",
    "const_2": "a constant symbol is decided by |a| alone; no range test runs",
}


@pytest.fixture(scope="module")
def shipped_report_dirs(tmp_path_factory):
    root = Path(__file__).parents[1] / "configs"
    out = {}
    for stem, small in SMALL_RUNS.items():
        cfg = json.loads((root / f"{stem}.json").read_text()) | small
        out[stem] = tmp_path_factory.mktemp(stem)
        run_scenario(cfg, out[stem])
    return out


@pytest.fixture(scope="module")
def shipped_reports(shipped_report_dirs):
    return {stem: json.loads((d / "report.json").read_text())
            for stem, d in shipped_report_dirs.items()}


def _strict_json(path: Path):
    """The file parsed as strict JSON, which has no NaN or Infinity."""
    def refuse(name):
        raise ValueError(f"{path}: {name} is not JSON")
    return json.loads(path.read_text(), parse_constant=refuse)


def _certificate_samples() -> dict:
    """One certificate per kind, written by certificate() from the objects
    the package's searches return."""
    e1 = CoefVec.basis(Side.UNILATERAL, 1)
    witness = MRWitness(e1, 2, 1, e1, 0.5, (0.25, 0.125), 1, 2, 1)
    return {
        **CERTS,
        "ap_witness": certificate("ap_witness", APWitness(48, 48, 3, 1),
                                  hits_artifact="hitting_0.csv"),
        "mr_witness": certificate("mr_witness", witness, center="e(1)",
                                  u_artifact="witness_u.csv",
                                  operator={"side": "unilateral",
                                            "weights": {"family": "constant_w", "c": 1.0}}),
    }


class TestCertificateTable:
    def test_samples_cover_every_kind(self):
        assert set(_certificate_samples()) == set(expcli.CERTIFICATES)

    @pytest.mark.parametrize("kind", sorted(expcli.CERTIFICATES))
    def test_resolve_reads_back_what_certificate_wrote(self, kind):
        written = _certificate_samples()[kind]
        assert written["type"] == kind
        fields = {key: v for key, v in written.items() if key != "type"}
        rows = expcli.CERTIFICATES[kind].rows
        read = expcli.resolve(json.loads(json.dumps(fields)), rows, kind)
        assert {"type": kind, **expcli.write_rows(rows, read)} == written

    def test_shipped_certificate_fields_are_rows(self, shipped_reports):
        for stem, report in shipped_reports.items():
            for cert in report["certificates"]:
                rows = expcli.CERTIFICATES[cert["type"]].rows
                assert set(cert) - {"type"} <= set(rows), (stem, cert["type"])
                if cert["type"] == "range":
                    assert set(cert["certificate"]) <= set(expcli.RANGE_TEST), stem

    def test_every_verdict_is_certified_or_says_why_not(self, shipped_reports):
        assert set(CERTIFIED.values()) <= set(expcli.CERTIFICATES)
        assert not set(CERTIFIED) & set(NOT_CERTIFIABLE)
        for stem, report in shipped_reports.items():
            kinds = {cert["type"] for cert in report["certificates"]}
            for key in report["verdicts"]:
                assert key in CERTIFIED or NOT_CERTIFIABLE.get(key), (stem, key)
                if key in CERTIFIED:
                    assert CERTIFIED[key] in kinds, (stem, key)


class TestStrictJson:
    def test_shipped_reports(self, shipped_report_dirs):
        for d in shipped_report_dirs.values():
            _strict_json(d / "report.json")

    def test_smallest_eps(self, tmp_path):
        # the least eps whose 1/eps is finite: every log margin is finite
        eps = 5.56268464626801e-309
        assert 1 / eps < math.inf and 1 / math.nextafter(eps, 0) == math.inf
        cfg = {"scenario": "E4", "N": 100, "eps": eps}
        assert _run_config(tmp_path, "run", cfg) == EXIT_OK
        report = _strict_json(tmp_path / "o" / "report.json")
        assert math.isfinite(report["stats"]["best_margin"])

    def test_mr_witness_with_m_zero(self, tmp_path):
        # no progression is searched for, so no defect is computed: null
        assert main(_mr_config(tmp_path, center="4*e(1)", m=0)) == EXIT_OK
        report = _strict_json(tmp_path / "o" / "report.json")
        assert report["stats"]["smallest_defect"] is None


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


FU_CONFIG = {
    "scaling": {"family": "constant", "c": [1.0, 0.0]},
    "operator": {"side": "unilateral", "weights": {"family": "constant_w", "c": 1.0},
                 "premultiplier": [2.0, 0.0]},
    "targets": [{"vector": "e(1)", "eps": 1e-3}],
    "N": 2000,
}


def _run_config(tmp_path, command, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return main([command, "--config", str(path), "--out", str(tmp_path / "o")])


BAD_RUN_CONFIGS = {
    "E1_N_string": {"scenario": "E1", "N": "abc"},
    "E1_N_bool": {"scenario": "E1", "N": True},
    "E1_N_float": {"scenario": "E1", "N": 2e4},
    "E1_typo_key": {"scenario": "E1", "Nn": 100},
    # a build's density window needs N >= 110 (E3: N // 2 >= 110)
    "E1_no_room": {"scenario": "E1", "N": 10},
    "E1_N_109": {"scenario": "E1", "N": 109},
    "E2_N_60": {"scenario": "E2", "N": 60},
    "E3_N_219": {"scenario": "E3", "N": 219},
    "E6_N_60": {"scenario": "E6", "N": 60},
    "E2_recurrence_N_negative": {"scenario": "E2", "recurrence_N": -5},
    "E2_ratio_N_small": {"scenario": "E2", "ratio_N": 50},
    "E4_q_negative": {"scenario": "E4", "q": -1},
    "E4_eps_one": {"scenario": "E4", "eps": 1},
    # 1/eps = inf: its log would put -Infinity into the report
    "E4_eps_subnormal": {"scenario": "E4", "N": 100, "eps": 5e-324},
    "E5_cap_string": {"scenario": "E5", "cap": "x"},
    "E5_N_below_10": {"scenario": "E5", "N": 5},
    "E6_g_below_support": {"scenario": "E6", "g": 2},
    "E6_tau_zero": {"scenario": "E6", "tau": 0},
    "E6_ap_order_string": {"scenario": "E6", "N": 20000, "ap_orders": [3, "4"]},
    "E6_target_index_zero": {"scenario": "E6", "targets": ["e(0)"]},
    "E6_target_beyond_int64": {"scenario": "E6", "targets": [f"e({BEYOND_INT64})"]},
    "E6_witness_center_beyond_int64": {"scenario": "E6", "N": 20000,
                                       "witness_center": f"e({BEYOND_INT64})"},
    "E6_target_1e400": {"scenario": "E6", "targets": ["1e400*e(2)"]},
    "E6_witness_center_nan": {"scenario": "E6", "N": 20000, "witness_center": "nan*e(1)"},
    "E7_unknown_key": {"scenario": "E7", "N": 10},
}

BAD_FU_CONFIGS = {
    "target_without_vector": {"targets": [{"eps": 1e-3}]},
    "target_eps_zero": {"targets": [{"vector": "e(1)", "eps": 0}]},
    "target_typo_key": {"targets": [{"vector": "e(1)", "eps": 1e-3, "epss": 1}]},
    "N_string": {"N": "2000"},
    "N_60": {"N": 60},
    "g_not_above_support": {"g": 1},
    "n_min_zero": {"n_min": 0},
    "typo_key": {"Nn": 5},
    "operator_typo_key": {"operator": {**FU_CONFIG["operator"], "sied": "unilateral"}},
    "scaling_c_null": {"scaling": {"family": "constant", "c": None}},
    # json.dumps writes these as Infinity and NaN
    "scaling_c_infinity": {"scaling": {"family": "constant", "c": [1.0, math.inf]}},
    "scaling_c_nan": {"scaling": {"family": "constant", "c": [math.nan, 0.0]}},
    "target_eps_infinity": {"targets": [{"vector": "e(1)", "eps": math.inf}]},
    "target_eps_int_beyond_float": {"targets": [{"vector": "e(1)", "eps": 10**400}]},
    "target_index_beyond_int64": {"targets": [{"vector": f"e({BEYOND_INT64})", "eps": 1e-3}]},
    "target_infinite": {"targets": [{"vector": "inf*e(1)", "eps": 1e-3}]},
    "target_complex_infinite": {"targets": [{"vector": "(1+infj)*e(2)", "eps": 1e-3}]},
    "weights_table_start_5": {"operator": {**FU_CONFIG["operator"], "weights": {
        "family": "table_w", "values": [1.5] * 40, "start": 5}}},
    # weights at -5..-1: no w_1, so no product could be read
    "weights_table_ends_before_w1": {"operator": {**FU_CONFIG["operator"], "weights": {
        "family": "table_w", "values": [0.5, 1.5, 2.0, 1.0, 0.25], "start": -5}}},
}

BAD_MR_CONFIGS = {
    "typo_key": {"mm": 3},
    "eps_negative": {"eps": -0.1},
    "K_zero": {"K": 0},
    "N_bool": {"N": True},
    "factorial_scaling": {"scaling": {"family": "factorial"}},
    "center_beyond_int64": {"center": f"e({BEYOND_INT64})"},
    "center_nan": {"center": "nan*e(1)"},
}


SALAS = ["check-salas", "--weights", "step_bilateral", "--eps", "0.5", "--q", "0"]
CHECK_MR = ["check-mr", "--weights", "inverse_step_bilateral", "--m", "2", "--q", "0",
            "--eps", "0.5"]
SEQ = ["classify-seq", "--family", "factorial"]
SERIES = ["check-series", "--weights", "sqrt_ratio"]
AP_FIND = ["ap-find", "--hits", "HITS", "--nmax", "100", "--m", "2"]

BAD_FLAGS = {
    "check_salas_eps_2": [*SALAS, "--eps", "2"],
    "check_salas_eps_subnormal": [*SALAS, "--eps", "5e-324"],
    "check_salas_q_float": [*SALAS, "--q", "1.0"],
    "check_salas_one_sided_weights": [*SALAS, "--weights", "sqrt_ratio"],
    "check_series_nmax_5": [*SERIES, "--nmax", "5"],
    "check_series_no_weights": ["check-series", "--nmax", "100"],
    "check_series_cap_negative": [*SERIES, "--cap", "-1"],
    "classify_symbol_bad_json": ["classify-symbol", "--coeffs", "[1,"],
    "classify_symbol_bad_item": ["classify-symbol", "--coeffs", "1,x"],
    "classify_seq_a_x": ["classify-seq", "--family", "exp_pow", "--a", "x"],
    "classify_seq_tau_0": [*SEQ, "--tau", "0"],
    "classify_seq_tol_0": [*SEQ, "--tol", "0"],
    "classify_seq_tol_inf": ["classify-seq", "--family", "constant", "--c", "1", "--tol", "inf"],
    "classify_seq_c_nan": ["classify-seq", "--family", "constant", "--c", "nan"],
    "classify_seq_restrict_mod_0": [*SEQ, "--restrict-mod", "0"],
    "classify_seq_horizon_below_100_tau": [*SEQ, "--tau", "5", "--horizon", "200"],
    "classify_seq_key_of_other_family": [*SEQ, "--a", "0.5"],
    "check_mr_m_0": [*CHECK_MR, "--m", "0"],
    "check_mr_eps_subnormal": [*CHECK_MR, "--eps", "5e-324"],
    "ap_find_max_k_0": [*AP_FIND, "--max-k", "0"],
}

BAD_HORIZON_FLAGS = {
    "classify_seq_horizon": [*SEQ, "--horizon", str(RESOURCE_CAP_N + 1)],
    "check_salas_nmax": [*SALAS, "--nmax", str(RESOURCE_CAP_N + 1)],
    "check_mr_nmax": [*CHECK_MR, "--nmax", str(RESOURCE_CAP_N + 1)],
    "check_mr_product_length": [*CHECK_MR, "--nmax", str(RESOURCE_CAP_N // 2 + 1)],
    # m*(2q+1)*nmax just above the cap, each factor well inside it
    "check_salas_search": [*SALAS, "--q", "10", "--nmax", str(RESOURCE_CAP_N // 21 + 1)],
    "check_mr_search": [*CHECK_MR, "--q", "1", "--nmax", str(RESOURCE_CAP_N // 6 + 1)],
    "check_series_nmax": [*SERIES, "--nmax", str(RESOURCE_CAP_N + 1)],
    "ap_find_nmax": [*AP_FIND, "--nmax", str(10**12)],
}

TYPO_SCALING = {"family": "constant", "c": [1.0, 0.0], "cc": 1}
TYPO_WEIGHTS = {"family": "constant_w", "c": 1.0, "cc": 5}
TYPO_THETA = {"family": "rotated", "base": {"family": "constant", "c": [1.0, 0.0]},
              "theta": {"kind": "constant", "value": 0.5, "valu": 1}}
FAMILY_TYPOS = {
    "scaling_typo": {"scaling": TYPO_SCALING},
    "operator_weights_typo": {"operator": {"side": "unilateral", "weights": TYPO_WEIGHTS,
                                           "premultiplier": [2.0, 0.0]}},
    "rotated_theta_typo": {"scaling": TYPO_THETA},
}


def _flag_argv(tmp_path, argv):
    hits = tmp_path / "hits.csv"
    hits.write_text("n\n1\n2\n3\n")
    return [str(hits) if a == "HITS" else a for a in argv]


class TestConfigMatrix:
    """Every malformed config or flag exits 2 with one "config error:" line;
    every horizon above the cap exits 4 with one "resource cap:" line."""

    @pytest.mark.parametrize("argv", BAD_FLAGS.values(), ids=BAD_FLAGS)
    def test_flags(self, tmp_path, capsys, argv):
        _assert_schema_error(main(_flag_argv(tmp_path, argv)), capsys)

    @pytest.mark.parametrize("argv", BAD_HORIZON_FLAGS.values(), ids=BAD_HORIZON_FLAGS)
    def test_horizon_flags(self, tmp_path, capsys, argv):
        assert main(_flag_argv(tmp_path, argv)) == EXIT_RESOURCE
        err = capsys.readouterr().err
        assert err.startswith("resource cap: ") and err.count("\n") == 1

    @pytest.mark.parametrize("edit", FAMILY_TYPOS.values(), ids=FAMILY_TYPOS)
    def test_build_fu_family_typo(self, tmp_path, capsys, edit):
        _assert_schema_error(_run_config(tmp_path, "build-fu", {**FU_CONFIG, **edit}), capsys)

    @pytest.mark.parametrize("edit", FAMILY_TYPOS.values(), ids=FAMILY_TYPOS)
    def test_mr_witness_family_typo(self, tmp_path, capsys, edit):
        _assert_schema_error(main(_mr_config(tmp_path, **edit)), capsys)

    def test_series_certificate_weights_typo(self, tmp_path, capsys):
        cert = _edited("series", {"weights": {"family": "sqrt_ratio", "typo": 1}})
        _assert_schema_error(main(_verify_argv(tmp_path, {"certificates": [cert]})), capsys)

    @pytest.mark.parametrize("cfg", BAD_RUN_CONFIGS.values(), ids=BAD_RUN_CONFIGS)
    def test_run(self, tmp_path, capsys, cfg):
        _assert_schema_error(_run_config(tmp_path, "run", cfg), capsys)

    @pytest.mark.parametrize("edit", BAD_FU_CONFIGS.values(), ids=BAD_FU_CONFIGS)
    def test_build_fu(self, tmp_path, capsys, edit):
        _assert_schema_error(_run_config(tmp_path, "build-fu", {**FU_CONFIG, **edit}), capsys)

    @pytest.mark.parametrize("edit", BAD_MR_CONFIGS.values(), ids=BAD_MR_CONFIGS)
    def test_mr_witness(self, tmp_path, capsys, edit):
        _assert_schema_error(main(_mr_config(tmp_path, **edit)), capsys)


class TestConfigOutcomes:
    @pytest.mark.parametrize("cfg", [
        {"scenario": "E2", "N": 10**9},
        {"scenario": "E2", "recurrence_N": 10**9},
        {"scenario": "E3", "ratio_N": 10**9},
        {"scenario": "E4", "q": 1, "N": RESOURCE_CAP_N // 3 + 1},
    ], ids=["E2_N", "E2_recurrence_N", "E3_ratio_N", "E4_search"])
    def test_horizon_above_cap_is_exit_4(self, tmp_path, capsys, cfg):
        assert _run_config(tmp_path, "run", cfg) == EXIT_RESOURCE
        assert capsys.readouterr().err.startswith("resource cap: ")

    @pytest.mark.parametrize("command, cfg", [
        ("build-fu", {**FU_CONFIG, "N": 200, "n_min": 300}),
        ("build-fu", {**FU_CONFIG, "operator": {**FU_CONFIG["operator"],
                                                "premultiplier": [0.5, 0.0]}}),
    ], ids=["build_fu_no_room", "build_fu_infeasible_decay"])
    def test_failed_build_is_exit_3(self, tmp_path, capsys, command, cfg):
        assert _run_config(tmp_path, command, cfg) == EXIT_ASSERTION
        err = capsys.readouterr().err
        assert err.startswith("FU build failed: ") and err.count("\n") == 1

    def test_mr_witness_none_found_is_exit_3(self, tmp_path, capsys):
        # 2B carries e(3) to 4e(1) and then to 0: no orbit point comes near e(1)
        assert main(_mr_config(tmp_path)) == EXIT_ASSERTION
        captured = capsys.readouterr()
        assert not captured.out and captured.err.count("\n") == 1
        assert captured.err.startswith("scenario assertion failed: witness search failed")

    @pytest.mark.parametrize("flag", ["--m", "--tau"])
    def test_ap_find_progression_beyond_horizon(self, tmp_path, capsys, flag):
        argv = _flag_argv(tmp_path, [*AP_FIND, flag, str(BEYOND_INT64)])
        assert main(argv) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == "none\n" and not captured.err

    @pytest.mark.parametrize("key, value", [
        ("tau", BEYOND_INT64), ("ap_orders", [BEYOND_INT64]), ("witness_m", BEYOND_INT64),
    ])
    def test_e6_progression_beyond_horizon_is_exit_3(self, tmp_path, capsys, key, value):
        cfg = {"scenario": "E6", "N": 20000, key: value}
        assert _run_config(tmp_path, "run", cfg) == EXIT_ASSERTION
        err = capsys.readouterr().err
        assert err.startswith("scenario assertion failed: ") and err.count("\n") == 1

    def test_optional_key_may_be_null(self, tmp_path):
        assert _run_config(tmp_path, "build-fu", {**FU_CONFIG, "g": None}) == EXIT_OK


class TestUnusableOut:
    """An --out that is a file, or a path through one, is a config error
    found before the command's work: one line on stderr, nothing on stdout,
    and the file in the way is left as it was."""

    @staticmethod
    def _argv(tmp_path, command):
        if command == "run":
            return ["run", "--scenario", "E7"]
        if command == "build-fu":
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(FU_CONFIG))
            return ["build-fu", "--config", str(path)]
        # this search finds no witness (exit 3), so exit 2 shows that the
        # output directory is tried before the search
        return _mr_config(tmp_path)[:-2]

    @pytest.mark.parametrize("below", [False, True], ids=["file", "path_through_file"])
    @pytest.mark.parametrize("command", ["run", "build-fu", "mr-witness"])
    def test_is_config_error(self, tmp_path, capsys, command, below):
        blocker = tmp_path / "blocker"
        blocker.write_text("in the way")
        out = blocker / "sub" if below else blocker
        code = main([*self._argv(tmp_path, command), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == EXIT_SCHEMA
        assert captured.out == ""
        assert captured.err.startswith(f"config error: cannot write --out {out}: ")
        assert captured.err.count("\n") == 1
        assert blocker.read_text() == "in the way"


class TestParamTable:
    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.stem)
    def test_defaults_match_shipped_configs(self, path):
        cfg = json.loads(path.read_text())
        sid = cfg["scenario"]
        # the shipped config spells out every key, so this pins every default
        assert set(cfg) - {"scenario"} == set(expcli.PARAMS[sid])
        assert scenario_params(cfg) == scenario_params({"scenario": sid})

    def test_log_pow_k_defaults_to_one(self):
        # the flag surface always defaulted k to 1.0; a config now does too
        assert expcli.SCALING.read({"family": "log_pow"}).params == (1.0,)

    @pytest.mark.parametrize("w", [
        WeightSeq.constant(0.5), WeightSeq.sqrt_ratio(), WeightSeq.step_bilateral(),
        WeightSeq.inverse_step_bilateral(), WeightSeq.table([1.0, 2.5, 0.5], start=-1),
    ], ids=lambda w: w.family)
    def test_weights_round_trip(self, w):
        assert expcli.WEIGHTS.read(w.to_config()) == w

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.stem)
    def test_run_by_scenario_id_matches_shipped_config(self, tmp_path, capsys, path):
        cfg = json.loads(path.read_text())
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--scenario", cfg["scenario"], "--out", str(a)]) == EXIT_OK
        assert main(["run", "--config", str(path), "--out", str(b)]) == EXIT_OK
        ra, rb = (json.loads((d / "report.json").read_text()) for d in (a, b))
        assert ra.pop("config") == {"scenario": cfg["scenario"]}
        assert rb.pop("config") == cfg
        assert ra == rb
        csvs = sorted(p.name for p in a.glob("*.csv"))
        assert csvs == sorted(p.name for p in b.glob("*.csv"))
        assert all((a / n).read_bytes() == (b / n).read_bytes() for n in csvs)
        for d in (a, b):
            assert main(["verify", "--report", str(d / "report.json")]) == EXIT_OK
        assert not capsys.readouterr().err


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

    # sha256 of every file a flat two-target build-fu and an mr-witness on
    # its vector write; perfbench's goldens cover no mr-witness report
    PINNED = {
        "fu": {
            "report.json": "117b0fb9144f160e22bc5d521e917f4d9978315682d1f56751bf76c180d8284f",
            "fu_vector.csv": "2068788a1f0c43df76ff347984d5f1cef8106e7b54f3e9fc3f9461fe0a978b10",
            "hitting_0.csv": "3113087eb100aee920e2c9ca538120fd00a3f621ece7ffd0b62dcbd641424d12",
            "hitting_1.csv": "88e736553c96633765581a129ee2f04e9cbe5ea975c357fd84e094bd8c5be3fc",
        },
        "mw": {
            "report.json": "a866ae18be1ddad432ad82b97ef01391a0b11f8cbbf9fd98c01c3eb374526f87",
            "witness_u.csv": "ce474e01aca57af4271d3aac6f8bab64d16198e00014e85108d62eaee885c9c8",
        },
    }

    def test_build_fu_and_mr_witness_bytes_pinned(self, tmp_path, monkeypatch):
        # the report echoes the config, so vector_csv must be a relative path
        monkeypatch.chdir(tmp_path)
        Path("build.json").write_text(json.dumps(FU_CONFIG | {
            "targets": [{"vector": "e(1)", "eps": 1e-3}, {"vector": "e(1)+e(2)", "eps": 1e-3}],
            "N": 10_000, "g": 16,
        }))
        Path("mw.json").write_text(json.dumps({
            "scaling": FU_CONFIG["scaling"], "operator": FU_CONFIG["operator"],
            "vector_csv": "fu/fu_vector.csv", "center": "e(1)", "eps": 0.01, "m": 3,
            "N": 10_000,
        }))
        assert main(["build-fu", "--config", "build.json", "--out", "fu"]) == EXIT_OK
        assert main(["mr-witness", "--config", "mw.json", "--out", "mw"]) == EXIT_OK
        for out, want in self.PINNED.items():
            got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in Path(out).iterdir()}
            assert got == want, out


    # sha256 of build-fu with sqrt_ratio weights, the config of perfbench's
    # criteria_search build-fu job: the per-n kernel's distances reach the
    # report through worst_residual
    PINNED_GENERAL = {
        "report.json": "97fab0db4933d1f94e418f7cefce31fc557da57d89f408beb806691efd8af55d",
        "fu_vector.csv": "9f36720074539fe535e075edc67eb377bbc3233fab890f82d320c10e1594fe95",
        "hitting_0.csv": "24cac96c2eb8974cb17cdc0d39a46863a4f50886167ca31d5c42754349f1759f",
    }

    def test_build_fu_general_weight_bytes_pinned(self, tmp_path):
        cfg = FU_CONFIG | {
            "operator": FU_CONFIG["operator"] | {"weights": {"family": "sqrt_ratio"}},
            "targets": [{"vector": "e(1)", "eps": 0.001}],
            "N": 8_000,
        }
        (tmp_path / "build.json").write_text(json.dumps(cfg))
        assert main(["build-fu", "--config", str(tmp_path / "build.json"),
                     "--out", str(tmp_path / "fu")]) == EXIT_OK
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in (tmp_path / "fu").iterdir()}
        assert got == self.PINNED_GENERAL


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

    def test_classify_seq_overflowing_trend_warns_nothing(self):
        # exp_pow(50)'s anchor block means differ by about 1e250: the trend
        # test compares their signs, where their product overflowed and, with
        # warnings as errors, ended in a traceback and exit 1
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "orbitlab", "classify-seq",
             "--family", "exp_pow", "--a", "50", "--horizon", "100000"],
            env=_package_env(), capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        assert proc.stdout.startswith("family=exp_pow tau=1 verdict=bad limit=0.0\n")

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
        assert capsys.readouterr().out == "a=2 k=2 members=[2, 4, 6, 8, 10]\n"

    def test_classify_symbol(self, capsys):
        assert main(["classify-symbol", "--coeffs", "2,1"]) == EXIT_OK
        assert "not_recurrent" in capsys.readouterr().out

    @pytest.mark.parametrize("coeffs, trimmed, verdict", [
        ("0.5,1,0", "0.5,1", "frequently_hypercyclic_and_multiply_recurrent\nrange: intersects"),
        ("0,0", "0", "constant_not_recurrent\n"),
        ("[]", "0", "constant_not_recurrent\n"),
    ])
    def test_classify_symbol_trailing_zeros(self, capsys, coeffs, trimmed, verdict):
        # zero leading coefficients are trimmed, and no coefficient at all
        # is the zero symbol: 0.5 + z + 0 z^2 is the degree-1 symbol 0.5 + z,
        # with its verdict and certificate
        assert main(["classify-symbol", "--coeffs", trimmed]) == EXIT_OK
        want = capsys.readouterr().out
        assert main(["classify-symbol", "--coeffs", coeffs]) == EXIT_OK
        assert capsys.readouterr().out == want
        assert want.startswith(verdict)

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


def _package_env() -> dict:
    """The environment of a child ``python -m orbitlab`` that imports this
    package."""
    src = str(Path(expcli.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _call(capsys, argv):
    """(exit code, stdout, stderr) of one in-process ``main`` call; argparse
    ends --help and usage errors with SystemExit."""
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code or 0
    return (code, *capsys.readouterr())


class TestParserReuse:
    """main builds its parser once per process, and each call still answers
    as a fresh ``python -m orbitlab`` process does: no flag of one call
    reaches the next (the flag commands' absent flags stay absent)."""

    @staticmethod
    def _sequence(tmp_path):
        (tmp_path / "hits.csv").write_text(
            "n\n" + "\n".join(str(n) for n in range(2, 1001, 2)) + "\n")
        ap_find = ["ap-find", "--hits", "hits.csv", "--nmax", "1000"]
        return [
            ["run", "--scenario", "E7", "--out", "out"],
            ["verify", "--report", "out/report.json"],
            [*ap_find, "--m", "4"],
            [*ap_find, "--m", "3"],
            ["classify-seq", "--family", "exp_pow", "--a", "0.9"],
            # exp_pow needs its a, so this one is a config error
            ["classify-seq", "--family", "exp_pow"],
            ["run", "--bogus"],
            ["--help"],
        ]

    def test_no_parser_built_after_the_first_call(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        sequence = self._sequence(tmp_path)
        _call(capsys, sequence[0])
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        codes = [_call(capsys, argv)[0] for argv in sequence]
        assert codes == [EXIT_OK] * 5 + [EXIT_SCHEMA, 2, 0]
        assert built == []

    def test_each_call_matches_a_fresh_process(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        # argparse wraps --help and usage lines to the terminal's width
        monkeypatch.setenv("COLUMNS", "80")
        for argv in self._sequence(tmp_path):
            got = _call(capsys, argv)
            proc = subprocess.run([sys.executable, "-m", "orbitlab", *argv], cwd=tmp_path,
                                  env=_package_env(), capture_output=True, text=True, timeout=60)
            assert got == (proc.returncode, proc.stdout, proc.stderr), argv
