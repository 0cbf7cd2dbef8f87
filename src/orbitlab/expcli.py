"""Config-driven experiment runner and command-line surface.

Scenarios E1-E7 reproduce the catalogue of worked examples end to end and
emit a JSON report plus CSV artifacts. Reports are byte-deterministic:
no timestamps, no absolute paths, no wall-clock stats, and every scan runs
over the same fixed chunk grid, merged in order. Exit codes: 0 ok,
2 config/schema error, 3 scenario assertion or FU build failed, 4 resource
cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass
from functools import partial
from operator import methodcaller
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .criteria import (
    MRShiftCertificate,
    fhc_series_check,
    mr_shift_check,
    norm_decay_check,
    salas_check,
)
from .fhbuilder import BuildError, build
# dist is not called here; it stays importable as expcli.dist because the
# benchmark's tracer self-test (perfbench/test_perfbench.py) patches that name
from .lspace import Ball, CoefVec, Side, dist, norm  # noqa: F401
from .orbits import (
    HittingSet,
    MRWitness,
    density_stats,
    find_ap,
    mr_witness_search,
    recurrence_scan,
    witness_distances,
)
from .seqcore import AngleSpec, ScalingSeq, ratio_classify, rotate_seq
from .shiftops import ShiftOp, WeightSeq, scaled_orbit_point
from .symbolops import PolySymbol, RangeCertificate, RangeKind, classify_adjoint

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_ASSERTION = 3
EXIT_RESOURCE = 4

RESOURCE_CAP_N = 20_000_000

REPORT_FORMAT = "orbitlab-report-v1"


class ConfigError(ValueError):
    """Invalid or missing configuration."""


class ScenarioError(RuntimeError):
    """A scenario-level assertion failed."""


class ResourceCapError(RuntimeError):
    """Configured horizon exceeds the documented resource cap."""


# exception -> (exit code, stderr prefix); a subclass maps like its base
EXIT_CODES = {
    ConfigError: (EXIT_SCHEMA, "config error"),
    ScenarioError: (EXIT_ASSERTION, "scenario assertion failed"),
    BuildError: (EXIT_ASSERTION, "FU build failed"),
    ResourceCapError: (EXIT_RESOURCE, "resource cap"),
}


def _check_cap(n: int, what: str = "horizon") -> None:
    if n > RESOURCE_CAP_N:
        raise ResourceCapError(f"{what} {n} exceeds resource cap {RESOURCE_CAP_N}")


def _product_search(weights, m: int, q: int, eps: float, n_max: int):
    """The order-m product search (salas_check at m = 1, else mr_shift_check)
    behind the resource cap on its work, m*(2q+1) passes over the n_max
    candidates."""
    _check_cap(m * (2 * q + 1) * n_max, "product search m*(2q+1)*nmax")
    if m == 1:
        return salas_check(weights, eps, q, n_max)
    return mr_shift_check(weights, m, q, eps, n_max)


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Kind:
    """A JSON value type: its name, a reader that gives the value in Python
    form or raises TypeError (bool is no number), and, for a kind that a
    flag can take, a parser that turns the flag's argv text into the JSON
    value (raising ValueError). A family kind also carries its family table
    and says whether a flag command takes its scalar keys as flags of their
    own."""

    name: str
    read: Callable[[object], object]
    parse: Callable[[str], object] | None = None
    families: dict | None = None
    key_flags: bool = False


def _read_int(v) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise TypeError
    return v


def _read_number(v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError
    # finite only: not JSON's Infinity or NaN, flag text "inf", or an int
    # beyond the float range
    if not abs(v) <= sys.float_info.max:
        raise TypeError
    return float(v)


def _read_complex(v) -> complex:
    if isinstance(v, list) and len(v) == 2:
        return complex(_read_number(v[0]), _read_number(v[1]))
    return complex(_read_number(v))


def _parse_complex(text: str) -> list:
    """Flag text as Python's complex() reads it ("1+2j"), as [re, im]."""
    z = complex(text)
    return [z.real, z.imag]


def _instance_of(cls: type) -> Callable:
    def read(v):
        if not isinstance(v, cls):
            raise TypeError
        return v
    return read


def list_of(kind: Kind) -> Kind:
    """A list kind; its flag text is a JSON list or comma-separated items."""
    def read(v):
        if not isinstance(v, list):
            raise TypeError
        return [kind.read(item) for item in v]

    def parse(text: str) -> list:
        if text.lstrip().startswith("["):
            return json.loads(text)
        return [kind.parse(item) for item in text.split(",")]
    return Kind(f"list of {kind.name}", read, parse)


INT = Kind("int", _read_int, int)
NUMBER = Kind("number", _read_number, float)
COMPLEX = Kind("complex", _read_complex, _parse_complex)  # a number or [re, im]
STRING = Kind("string", _instance_of(str), str)
OBJECT = Kind("object", _instance_of(dict))
SCALARS = (INT, NUMBER, COMPLEX)


@dataclass(frozen=True)
class Range:
    """A valid range: its text, for messages and the README, and its test."""

    text: str
    holds: Callable[[object], bool]


def at_least(lo: int) -> Range:
    return Range(f">= {lo}", lambda v: v >= lo)


def each(r: Range) -> Range:
    return Range(f"each {r.text}", lambda vs: all(map(r.holds, vs)))


POSITIVE = Range("> 0", lambda v: v > 0)
OPEN_UNIT_INTERVAL = Range("in (0, 1)", lambda v: 0 < v < 1)
PUNCTURED_UNIT_DISK = Range("0 < |a| < 1", lambda v: 0 < abs(v) < 1)
BILATERAL = Range("bilateral", lambda w: w.bilateral_ok)

REQUIRED = object()


@dataclass(frozen=True)
class Param:
    """One config key: its kind, its default (REQUIRED if it has none; None
    if it is optional) and its valid range. A horizon above RESOURCE_CAP_N
    is a resource-cap error, not a config error."""

    kind: Kind
    default: object = REQUIRED
    range: Range | None = None
    horizon: bool = False


def horizon(default=REQUIRED, lo: int = 1) -> Param:
    return Param(INT, default, at_least(lo), horizon=True)


def param_cells(p: Param) -> tuple[str, str, str]:
    """A row's kind, default and range as the README and --help show them."""
    if p.default is REQUIRED:
        default = "required"
    elif p.default is None:
        default = "none"
    else:
        default = json.dumps(p.default)
    limits = [p.range.text] if p.range else []
    return p.kind.name, default, ", ".join(limits + ["horizon"] * p.horizon)


def table(name: str, rows: dict[str, Param]) -> Kind:
    """An object kind whose keys are read through their own table."""
    return Kind(name, lambda v: resolve(_instance_of(dict)(v), rows, name))


def _show(v) -> str:
    s = json.dumps(v)
    return s if len(s) <= 60 else s[:57] + "..."


def _read(kind: Kind, raw, where: str):
    """``raw`` read as ``kind``; a value of another kind is a config error
    that starts with ``where``."""
    try:
        return kind.read(raw)
    except TypeError:
        raise ConfigError(f"{where} must be {kind.name}, got {_show(raw)}") from None
    except ConfigError as e:
        raise ConfigError(f"{where}: {e}") from None


def resolve(cfg: dict, rows: dict[str, Param], where: str) -> SimpleNamespace:
    """Read a config through its table: every key known, every required key
    present, every value of its kind and in its range, defaults filled in.
    An optional key (default None) may be null."""
    unknown = sorted(set(cfg) - set(rows))
    if unknown:
        raise ConfigError(
            f"{where}: unknown key {unknown[0]!r} (known: {', '.join(rows) or 'none'})"
        )
    out = {}
    for key, p in rows.items():
        raw = cfg[key] if key in cfg else p.default
        if raw is REQUIRED:
            raise ConfigError(f"{where}: missing key {key!r}")
        if raw is None and p.default is None:
            out[key] = None
            continue
        value = _read(p.kind, raw, f"{where}: {key!r}")
        if p.range is not None and not p.range.holds(value):
            raise ConfigError(f"{where}: {key!r} must be {p.range.text}, got {_show(raw)}")
        if p.horizon:
            _check_cap(value, f"{where}: {key}")
        out[key] = value
    return SimpleNamespace(**out)


@dataclass(frozen=True)
class Family:
    """One member of a family kind: its keys, and the constructor that takes
    their resolved values in row order."""

    rows: dict[str, Param]
    build: Callable


def family_kind(name: str, tag: str, families: dict[str, Family], parse=None,
                key_flags: bool = False) -> Kind:
    """An object kind whose ``tag`` key names a family; the other keys are
    read through that family's rows and handed to its constructor. A
    ValueError from the constructor is a config error."""
    def read(v):
        obj = _instance_of(dict)(v)
        if tag not in obj:
            raise ConfigError(f"{name}: missing key {tag!r}")
        fam = families.get(obj[tag]) if isinstance(obj[tag], str) else None
        if fam is None:
            raise ConfigError(
                f"{name}: unknown {tag} {_show(obj[tag])} (known: {', '.join(families)})"
            )
        where = f"{name} {obj[tag]}"
        p = resolve(obj, {tag: Param(STRING), **fam.rows}, where)
        try:
            return fam.build(*(getattr(p, key) for key in fam.rows))
        except ValueError as e:
            raise ConfigError(f"{where}: {e}") from None
    return Kind(name, read, parse, families, key_flags)


def family_flags(kind: Kind) -> list[str]:
    """The keys a flag command takes as flags of their own for a row of this
    kind: with ``key_flags``, every scalar key of any of its families."""
    if not kind.key_flags:
        return []
    return sorted({key for fam in kind.families.values()
                   for key, p in fam.rows.items() if p.kind in SCALARS})


ANGLE = family_kind("angle", "kind", {
    "constant": Family({"value": Param(NUMBER, 0.0)}, partial(AngleSpec, "constant")),
    "linear": Family({"value": Param(NUMBER, 0.0)}, partial(AngleSpec, "linear")),
    "table": Family({"value": Param(list_of(NUMBER))},
                    lambda value: AngleSpec("table", tuple(value))),
})

# filled in below: "inverse" and "rotated" hold a scaling of their own
SCALING_FAMILIES: dict[str, Family] = {}
# on the flag surface, --family names the family ("log" is short for log_pow)
# and --a, --c, --k and --w give its keys
SCALING = family_kind("scaling", "family", SCALING_FAMILIES,
                      lambda text: {"family": {"log": "log_pow"}.get(text, text)},
                      key_flags=True)
SCALING_FAMILIES.update({
    "constant": Family({"c": Param(COMPLEX)}, ScalingSeq.constant),
    "log_pow": Family({"k": Param(NUMBER, 1.0)}, ScalingSeq.log_pow),
    "log_log": Family({}, ScalingSeq.log_log),
    "rational_poly": Family({"p": Param(list_of(COMPLEX)), "q": Param(list_of(COMPLEX))},
                            ScalingSeq.rational_poly),
    "exp_pow": Family({"a": Param(NUMBER)}, ScalingSeq.exp_pow),
    "exp_over_log": Family({}, ScalingSeq.exp_over_log),
    "exp_over_log_log": Family({}, ScalingSeq.exp_over_log_log),
    "factorial": Family({}, ScalingSeq.factorial),
    "geom_even_odd": Family({}, ScalingSeq.geom_even_odd),
    "dyadic_tower": Family({}, ScalingSeq.dyadic_tower),
    "power_of_w": Family({"w": Param(COMPLEX)}, ScalingSeq.power_of_w),
    "geom_inverse": Family({"a": Param(COMPLEX)}, ScalingSeq.geom_inverse),
    "table": Family({"values": Param(list_of(COMPLEX))}, ScalingSeq.table),
    "inverse": Family({"base": Param(SCALING)}, ScalingSeq.inverse),
    "rotated": Family({"base": Param(SCALING), "theta": Param(ANGLE)}, rotate_seq),
})

WEIGHTS = family_kind("weights", "family", {
    "constant_w": Family({"c": Param(NUMBER, range=POSITIVE)}, WeightSeq.constant),
    "sqrt_ratio": Family({}, WeightSeq.sqrt_ratio),
    "step_bilateral": Family({}, WeightSeq.step_bilateral),
    "inverse_step_bilateral": Family({}, WeightSeq.inverse_step_bilateral),
    "table_w": Family({"values": Param(list_of(NUMBER), range=each(POSITIVE)),
                       "start": Param(INT, 1)}, WeightSeq.table),
}, lambda text: {"family": text})

OPERATOR = {
    "side": Param(STRING, "unilateral"),
    "weights": Param(WEIGHTS),
    "premultiplier": Param(COMPLEX, 1.0),
}

TARGET = {
    "vector": Param(STRING),
    "eps": Param(NUMBER, range=POSITIVE),
}

# The least horizon of a frequently-universal build: its density window
# starts at isqrt(N - 1) + 1 >= 10 and must end by N // 10.
FU_MIN_N = 110

# Every command's config keys, one per line: kind, default, range. The flag
# commands (FLAG_COMMANDS) take each key as a flag: "max_k" is --max-k.
PARAMS: dict[str, dict[str, Param]] = {
    "E1": {
        "N": horizon(20_000, lo=FU_MIN_N),
        "a": Param(COMPLEX, 0.25, PUNCTURED_UNIT_DISK),
        "eps": Param(NUMBER, 1e-3, POSITIVE),
    },
    "E2": {
        "N": horizon(2_000, lo=FU_MIN_N),
        "eps": Param(NUMBER, 1e-3, POSITIVE),
        "recurrence_N": horizon(500),
        "ratio_N": horizon(10_000, lo=100),
    },
    "E3": {
        # the build and its density run on N // 2
        "N": horizon(100_000, lo=2 * FU_MIN_N),
        "eps": Param(NUMBER, 1e-3, POSITIVE),
        "ratio_N": horizon(100_000, lo=100),
    },
    "E4": {
        "N": horizon(10_000),
        "eps": Param(NUMBER, 0.5, OPEN_UNIT_INTERVAL),
        "q": Param(INT, 0, at_least(0)),
    },
    "E5": {
        "N": horizon(1_000_000, lo=10),
        "cap": Param(NUMBER, 12.0, POSITIVE),
    },
    "E6": {
        "N": horizon(100_000, lo=FU_MIN_N),
        "g": Param(INT, 16, at_least(1)),
        "eps": Param(NUMBER, 1e-3, POSITIVE),
        "targets": Param(list_of(STRING), ["e(1)", "e(1)+e(2)", "e(2)"]),
        "ap_orders": Param(list_of(INT), [3, 4, 5], each(at_least(1))),
        "tau": Param(INT, 1, at_least(1)),
        "witness_center": Param(STRING, "e(1)"),
        "witness_eps": Param(NUMBER, 0.01, POSITIVE),
        "witness_m": Param(INT, 3, at_least(0)),
    },
    "E7": {},
    "build-fu": {
        "scaling": Param(SCALING),
        "operator": Param(OBJECT),
        "targets": Param(list_of(table("target", TARGET))),
        "N": horizon(lo=FU_MIN_N),
        "g": Param(INT, None, at_least(1)),
        "n_min": Param(INT, None, at_least(1)),
    },
    "mr-witness": {
        "scaling": Param(SCALING),
        "operator": Param(OBJECT),
        "vector_csv": Param(STRING),
        "center": Param(STRING),
        "eps": Param(NUMBER, range=POSITIVE),
        "N": horizon(),
        "m": Param(INT, 3, at_least(0)),
        "tau": Param(INT, 1, at_least(1)),
        "K": Param(INT, None, at_least(1)),
    },
    "classify-seq": {
        "family": Param(SCALING),
        "tau": Param(INT, 1, at_least(1)),
        "horizon": horizon(10**6, lo=100),
        "tol": Param(NUMBER, 1e-4, POSITIVE),
        "restrict_mod": Param(INT, None, at_least(1)),
        "restrict_res": Param(INT, 0),
    },
    "check-salas": {
        "weights": Param(WEIGHTS, range=BILATERAL),
        "eps": Param(NUMBER, range=OPEN_UNIT_INTERVAL),
        "q": Param(INT, range=at_least(0)),
        "nmax": horizon(10**4),
    },
    "check-mr": {
        "weights": Param(WEIGHTS, range=BILATERAL),
        "m": Param(INT, range=at_least(1)),
        "q": Param(INT, range=at_least(0)),
        "eps": Param(NUMBER, range=OPEN_UNIT_INTERVAL),
        "nmax": horizon(10**4),
    },
    "check-series": {
        "weights": Param(WEIGHTS),
        "nmax": horizon(10**6, lo=10),
        "cap": Param(NUMBER, 12.0, POSITIVE),
    },
    "ap-find": {
        "hits": Param(STRING),
        "nmax": horizon(),
        "m": Param(INT, range=at_least(1)),
        "tau": Param(INT, 1, at_least(1)),
        "max_k": Param(INT, None, at_least(1)),
    },
    "classify-symbol": {
        "coeffs": Param(list_of(COMPLEX)),
    },
}


def scenario_params(cfg: dict) -> tuple[str, SimpleNamespace]:
    """The scenario id of a ``run`` config and its resolved parameters."""
    if "scenario" not in cfg:
        raise ConfigError("missing key 'scenario'")
    sid = cfg["scenario"]
    if not isinstance(sid, str) or sid.upper() not in SCENARIOS:
        raise ConfigError(f"unknown scenario {_show(sid)}; expected one of {', '.join(SCENARIOS)}")
    sid = sid.upper()
    rest = {key: v for key, v in cfg.items() if key != "scenario"}
    return sid, resolve(rest, PARAMS[sid], sid)


# ---------------------------------------------------------------------------
# config values
# ---------------------------------------------------------------------------

_VEC_TERM = re.compile(r"^\s*(?:(?P<coef>[^*]+)\*)?\s*e\(\s*(?P<k>-?\d+)\s*\)\s*$")


def _split_terms(spec: str) -> list[str]:
    """Split on '+' at paren depth zero, so "(1+2j)*e(4)" stays one term."""
    terms, depth, cur = [], 0, []
    for ch in spec:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "+" and depth == 0:
            terms.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    terms.append("".join(cur))
    return terms


def parse_vector(spec: str, side: Side = Side.UNILATERAL) -> CoefVec:
    """Vector literal: sums of [scalar*]e(k), e.g. "e(1)+0.5*e(2)"."""
    pairs = []
    for term in _split_terms(str(spec)):
        m = _VEC_TERM.match(term)
        if not m:
            raise ConfigError(f"bad vector term {term!r} in {spec!r}")
        try:
            coef = complex(m.group("coef").strip()) if m.group("coef") else 1.0 + 0j
        except ValueError as e:
            raise ConfigError(f"bad coefficient in {term!r}: {e}") from e
        pairs.append((int(m.group("k")), coef))
    try:
        x = CoefVec.from_pairs(side, pairs)
    except (ValueError, OverflowError) as e:
        raise ConfigError(f"bad vector {spec!r}: {e}") from e
    if not np.isfinite(x.log_mags).all():  # inf, nan or 1e400 coefficients
        raise ConfigError(f"bad vector {spec!r}: coefficients must be finite numbers")
    return x


def operator_from_config(cfg: dict) -> ShiftOp:
    p = resolve(cfg, OPERATOR, "operator")
    try:
        return ShiftOp(Side(p.side), p.weights, p.premultiplier)
    except ValueError as e:
        raise ConfigError(f"bad operator: {e}") from e


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def write_report(outdir: Path, scenario: str, cfg: dict, body: dict) -> dict:
    """Wrap a command's results in the report envelope and write report.json.

    ``config`` is the config as the user typed it, not the resolved one. A
    body without ``density_tables``, ``certificates`` or ``artifacts`` gets
    them empty.
    """
    report = {"format": REPORT_FORMAT, "scenario": scenario, "config": cfg,
              "density_tables": {}, "certificates": [], "artifacts": {}, **body}
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "report.json").write_text(canonical_json(report))
    return report


# Rows per batch when writing or parsing CSV. It bounds the temporary Python
# lists and strings: E1 at the resource cap writes about 84 MB, and with
# whole-file temporaries the fu_pipeline benchmark's peak RSS was about 5 MB
# higher. Batches of 2k to 64k rows format and parse equally fast.
CSV_BATCH_ROWS = 1 << 12


def write_csv(outdir: Path, name: str, header: list[str], cols) -> str:
    """Write equal-length numpy columns as CSV, one batch of rows per write.

    The bytes are those of ``csv.writer`` with floats passed through
    ``repr``: CRLF row endings, ints in decimal and floats as their shortest
    round-trip ``repr`` (``repr(int) == str(int)``).
    """
    outdir.mkdir(parents=True, exist_ok=True)
    with (outdir / name).open("w", newline="") as f:
        f.write(",".join(header) + "\r\n")
        for lo in range(0, len(cols[0]), CSV_BATCH_ROWS):
            cells = [map(repr, c[lo:lo + CSV_BATCH_ROWS].tolist()) for c in cols]
            rows = cells[0] if len(cells) == 1 else map(",".join, zip(*cells))
            f.write("\r\n".join(rows) + "\r\n")
    return name


def hitting_csv(outdir: Path, name: str, h: HittingSet) -> str:
    return write_csv(outdir, name, ["n"], [h.indices])


def density_csv(outdir: Path, name: str, ds) -> str:
    # int64 / int64 divides in float64: the same doubles as float(c) / float(n)
    density = ds.counts / ds.grid
    return write_csv(outdir, name, ["N", "count", "density"], [ds.grid, ds.counts, density])


def vector_csv(outdir: Path, name: str, x: CoefVec) -> str:
    return write_csv(
        outdir, name, ["index", "log_mag", "phase"], [x.indices, x.log_mags, x.phases]
    )


def complex_vector_csv(outdir: Path, name: str, x: CoefVec) -> str:
    """Float-range dump with the documented (index, re, im) column order."""
    vals = x.to_complex_array()
    return write_csv(outdir, name, ["index", "re", "im"], [x.indices, vals.real, vals.imag])


def _read_csv_columns(path: Path, wanted: dict[str, type]) -> list[np.ndarray]:
    """Parse a whole CSV artifact into the wanted columns, found by header name.

    Rows may end in LF or CRLF; blank lines are skipped. Each wanted column
    is converted with its type (``int`` or ``float``), one batch of rows at
    a time. A missing file or column, a row with the wrong number of cells
    or a non-numeric or non-finite cell raises ConfigError.
    """
    try:
        lines = path.read_text().splitlines()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read artifact {path}: {e}") from e
    if not lines:
        raise ConfigError(f"artifact {path} is empty; expected a header row")
    header = lines[0].split(",")
    rows = list(filter(None, lines[1:]))
    ncols = len(header)
    if rows and set(map(methodcaller("count", ","), rows)) != {ncols - 1}:
        raise ConfigError(f"artifact {path}: every row must have {ncols} cells")
    for col in wanted:
        if col not in header:
            raise ConfigError(f"artifact {path} has no column {col!r} (header {header})")
    out = [np.empty(len(rows), np.int64 if kind is int else np.float64)
           for kind in wanted.values()]
    for lo in range(0, len(rows), CSV_BATCH_ROWS):
        cells = ",".join(rows[lo:lo + CSV_BATCH_ROWS]).split(",")
        for arr, (col, kind) in zip(out, wanted.items()):
            try:
                arr[lo:lo + CSV_BATCH_ROWS] = np.array(
                    list(map(kind, cells[header.index(col)::ncols])), arr.dtype)
            except (ValueError, OverflowError) as e:
                raise ConfigError(f"artifact {path}, column {col!r}: {e}") from e
            if not np.isfinite(arr[lo:lo + CSV_BATCH_ROWS]).all():
                raise ConfigError(f"artifact {path}, column {col!r}: a cell is not a finite number")
    return out


def read_vector_csv(path: Path, side: Side) -> CoefVec:
    idx, lms, phs = _read_csv_columns(
        path, {"index": int, "log_mag": float, "phase": float}
    )
    try:
        return CoefVec.from_log_entries(side, idx, lms, phs)
    except ValueError as e:
        raise ConfigError(f"artifact {path}: {e}") from e


def _fu_outputs(outdir: Path, v, densities: bool = True) -> dict:
    """Write an FU build's evidence: ``fu_vector.csv`` and each target's
    ``hitting_i.csv``, plus its ``density_i.csv`` when ``densities`` is true.
    Returns the report's ``density_tables``, ``fu_plan`` and ``artifacts``."""
    arts = {"fu_vector": vector_csv(outdir, "fu_vector.csv", v.x)}
    tables = {}
    for i, h in enumerate(v.hits):
        ds = density_stats(h)
        arts[f"hitting_{i}"] = hitting_csv(outdir, f"hitting_{i}.csv", h)
        if densities:
            arts[f"density_{i}"] = density_csv(outdir, f"density_{i}.csv", ds)
        tables[f"target_{i}"] = _density_table(ds)
    return {"density_tables": tables, "fu_plan": v.plan.to_config(), "artifacts": arts}


def _density_table(ds) -> dict:
    return {
        "lower_est": ds.lower_est,
        "upper_est": ds.upper_est,
        "window": list(ds.window),
        "label": ds.label,
    }


def _ratio_verdict_dict(v) -> dict:
    limit = v.limit
    if limit is not None and math.isinf(limit):
        limit = "inf"
    return {"kind": v.kind, "tau": v.tau, "limit": limit, "note": v.note}


def _ap_cert(w, hits_artifact: str) -> dict:
    return {
        "type": "ap_witness",
        "a": w.a,
        "k": w.k,
        "m": w.m,
        "tau": w.tau,
        "hits_artifact": hits_artifact,
    }


def _mr_cert(w: MRWitness, u_artifact: str, op_cfg: dict, center_spec: str) -> dict:
    return {
        "type": "mr_witness",
        "ell": w.ell,
        "m": w.m,
        "a": w.a,
        "k": w.k,
        "tau": w.tau,
        "radius": w.radius,
        "center": center_spec,
        "distances": [repr(d) for d in w.distances],
        "u_artifact": u_artifact,
        "operator": op_cfg,
    }


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def _op_cfg(T: ShiftOp) -> dict:
    return {
        "side": T.side.value,
        "weights": T.weights.to_config(),
        "premultiplier": [T.premultiplier.real, T.premultiplier.imag],
    }


def _coeffwise_close(x: CoefVec, y: CoefVec, tol: float) -> bool:
    if x.nnz != y.nnz or not np.array_equal(x.indices, y.indices):
        return False
    if not np.allclose(x.log_mags, y.log_mags, atol=tol, rtol=0):
        return False
    dphase = np.abs(np.angle(np.exp(1j * (x.phases - y.phases))))
    return bool(np.all(dphase <= tol))


def _checked(fn, *args, **kwargs):
    """Call ``fn`` on user-given inputs; a ValueError it raises about them
    (``build``'s gap against the target supports, a scaling with the wrong
    ratio limit for ``mr_witness_search``) is a config error."""
    try:
        return fn(*args, **kwargs)
    except ValueError as e:
        raise ConfigError(str(e)) from e


def run_e1(p: SimpleNamespace, outdir: Path) -> dict:
    """Geometric bad sequence: lam_n = w^{2n} with T = (1/w)B, w = a^{-1/2}."""
    a, N = p.a, p.N
    w = a ** -0.5
    lam = ScalingSeq.power_of_w(w)
    T = ShiftOp(Side.UNILATERAL, WeightSeq.constant(1.0), 1.0 / w)
    wb = ShiftOp(Side.UNILATERAL, WeightSeq.constant(1.0), w)

    # lam_n T^n coincides with (wB)^n
    x0 = CoefVec.from_pairs(Side.UNILATERAL, [(1, 1.0), (2, 0.5j), (3, -0.25)])
    for n in range(1, 31):
        lhs = scaled_orbit_point(lam, T, n, x0)
        rhs = wb.power_apply(n, x0)
        if not _coeffwise_close(lhs, rhs, 1e-9):
            raise ScenarioError(f"scaled-power identity failed at n={n}")

    e1 = CoefVec.basis(Side.UNILATERAL, 1)
    v = build(lam, T, [(e1, p.eps)], N)

    rep_decay = norm_decay_check(T, CoefVec.basis(Side.UNILATERAL, 5), 200)
    if not rep_decay.ok:
        raise ScenarioError("norm decay bound violated")
    verdict = ratio_classify(lam, 1)
    if not (verdict.is_bad and verdict.limit is not None
            and abs(verdict.limit - abs(a)) <= 1e-6):
        raise ScenarioError(f"expected Bad({abs(a)}), got {verdict.kind}")

    return {
        "verdicts": {
            "scaled_power_identity": "ok",
            "fu_build": "ok",
            "norm_decay": rep_decay.conclusion,
            "ratio": _ratio_verdict_dict(verdict),
        },
        "stats": {"hits": len(v.hits[0]), "planned": v.report["planned_total"], "N": N},
        **_fu_outputs(outdir, v),
    }


def run_e2(p: SimpleNamespace, outdir: Path) -> dict:
    """Factorial bad sequence: lam_n = n! with the unweighted shift."""
    N, scan_N = p.N, p.recurrence_N
    lam = ScalingSeq.factorial()
    T = ShiftOp(Side.UNILATERAL, WeightSeq.constant(1.0))
    e1 = CoefVec.basis(Side.UNILATERAL, 1)
    v = build(lam, T, [(e1, p.eps)], N)

    eps_rec = 0.5 * norm(v.x)
    returns = recurrence_scan(T, v.x, eps_rec, scan_N)
    if returns.size:
        raise ScenarioError(f"unexpected return time {int(returns[0])}")
    verdict = ratio_classify(lam, 1, N=p.ratio_N)
    if not (verdict.is_bad and verdict.limit == 0.0):
        raise ScenarioError(f"expected Bad(0), got {verdict.kind}")

    return {
        "verdicts": {
            "fu_build": "ok",
            "recurrence_scan": "empty",
            "ratio": _ratio_verdict_dict(verdict),
        },
        "stats": {"hits": len(v.hits[0]), "recurrence_horizon": scan_N, "N": N},
        **_fu_outputs(outdir, v),
    }


def run_e3(p: SimpleNamespace, outdir: Path) -> dict:
    """Even/odd blocks lam_{2n} = 2^n: frequent universality along the evens.

    The even-index subspace identifies with the full space by e_{2k} -> e_k,
    under which lam_{2n} B^{2n} acts as (2B)^n. The builder runs against the
    compressed operator and the result is mapped back to even indices.
    """
    N = p.N
    lam = ScalingSeq.geom_even_odd()
    B = ShiftOp(Side.UNILATERAL, WeightSeq.constant(1.0))
    T2 = ShiftOp(Side.UNILATERAL, WeightSeq.constant(1.0), 2.0)
    e1 = CoefVec.basis(Side.UNILATERAL, 1)
    n_comp = N // 2
    v = build(ScalingSeq.constant(1.0), T2, [(e1, p.eps)], n_comp)
    h_comp = v.hits[0]
    ds = density_stats(h_comp)

    # map back: x_{2k} = v_k; orbit times 2n hit the ball around e_2
    x_even = CoefVec(Side.UNILATERAL, 2 * v.x.indices, v.x.log_mags, v.x.phases)
    for n in range(1, 21):
        lhs = scaled_orbit_point(lam, B, 2 * n, x_even)
        comp = T2.power_apply(n, v.x)
        mapped = CoefVec(Side.UNILATERAL, 2 * comp.indices, comp.log_mags, comp.phases)
        if not _coeffwise_close(lhs, mapped, 1e-9):
            raise ScenarioError(f"even-index embedding failed at n={n}")

    period = v.plan.period
    if abs(ds.lower_est - 1.0 / period) > 0.01:
        raise ScenarioError(
            f"evens hitting density {ds.lower_est:.4f} far from 1/{period}"
        )

    full = ratio_classify(lam, 1, N=p.ratio_N)
    evens = ratio_classify(lam, 1, N=p.ratio_N, restrict=(2, 0))
    if not evens.is_good:
        raise ScenarioError(f"restricted ratio should be good, got {evens.kind}")
    if full.is_good:
        raise ScenarioError("full ratio limit does not exist; good is wrong")

    arts = {
        "hitting_compressed": hitting_csv(outdir, "hitting_compressed.csv", h_comp),
        "density_compressed": density_csv(outdir, "density_compressed.csv", ds),
    }
    return {
        "verdicts": {
            "fu_build_on_evens": "ok",
            "embedding_identity": "ok",
            "ratio_full": _ratio_verdict_dict(full),
            "ratio_evens": _ratio_verdict_dict(evens),
        },
        "density_tables": {"compressed_target": _density_table(ds)},
        "stats": {"hits": len(h_comp), "N": N, "compressed_N": n_comp},
        "fu_plan": v.plan.to_config(),
        "artifacts": arts,
    }


def run_e4(p: SimpleNamespace, outdir: Path) -> dict:
    """Universal-but-not-hypercyclic bilateral shift: product test must fail."""
    n_max = p.N
    out = _product_search(WeightSeq.step_bilateral(), 1, p.q, p.eps, n_max)
    if out:
        raise ScenarioError(f"unexpected product witness n={out.certificate.n}")
    return {
        "verdicts": {
            "salas": f"none found up to N_max={n_max}",
            "context": "universal scaled orbit exists; operator is not hypercyclic",
        },
        "stats": {"best_margin": out.diagnostics.get("best_margin"),
                  "best_n": out.diagnostics.get("best_n"), "N": n_max},
    }


def run_e5(p: SimpleNamespace, outdir: Path) -> dict:
    """Mixing but not frequently hypercyclic: sqrt-ratio weights."""
    n_max = p.N
    w = WeightSeq.sqrt_ratio()
    sample = np.unique(np.geomspace(1, n_max, 200).astype(np.int64))
    worst = 0.0
    for n in sample:
        got = w.forward_log(0, int(n))
        want = 0.5 * math.log(float(n) + 1.0)
        worst = max(worst, abs(got - want))
    if worst > 1e-9:
        raise ScenarioError(f"product formula deviates by {worst}")
    sv = fhc_series_check(w, n_max, cap=p.cap)
    if sv.kind != "diverges_observed":
        raise ScenarioError(f"expected diverges_observed, got {sv.kind}")
    return {
        "verdicts": {
            "product_formula": f"max deviation {worst:.3e}",
            "series": sv.kind,
        },
        "certificates": [sv.to_config() | {"weights": w.to_config()}],
        "stats": {"partial_sum": sv.partial_sum, "crossed_cap_at": sv.crossed_cap_at,
                  "N": n_max},
    }


def run_e6(p: SimpleNamespace, outdir: Path) -> dict:
    """Full pipeline: builder, hitting sets, progression search, witness."""
    N, tau = p.N, p.tau
    T2 = ShiftOp(Side.UNILATERAL, WeightSeq.constant(1.0), 2.0)
    lam = ScalingSeq.constant(1.0)
    targets = [(parse_vector(s), p.eps) for s in p.targets]
    v = _checked(build, lam, T2, targets, N, g=p.g)

    fu = _fu_outputs(outdir, v)
    arts = fu["artifacts"]

    h0 = v.hits[0]
    certificates = []
    ap_results = {}
    for m in p.ap_orders:
        w = find_ap(h0, m, tau)
        if w is None or not w.verify(h0):
            raise ScenarioError(f"no verified progression of order {m}")
        ap_results[f"m_{m}"] = {"a": w.a, "k": w.k}
        certificates.append(_ap_cert(w, arts["hitting_0"]))

    center = p.witness_center
    out = mr_witness_search(
        v.x, lam, T2, Ball(parse_vector(center), p.witness_eps), p.witness_m, tau, N
    )
    if not out:
        raise ScenarioError(f"witness search failed: {out.diagnostics}")
    w = out.witness
    if not w.verify(T2):
        raise ScenarioError("witness failed re-verification")
    arts["witness_u"] = vector_csv(outdir, "witness_u.csv", w.u)
    arts["witness_u_complex"] = complex_vector_csv(outdir, "witness_u_complex.csv", w.u)
    certificates.append(_mr_cert(w, arts["witness_u"], _op_cfg(T2), center))

    return {
        "verdicts": {
            "fu_build": "ok",
            "ap_search": ap_results,
            "mr_witness": {
                "ell": w.ell,
                "m": w.m,
                "max_distance": repr(max(w.distances)),
            },
        },
        "certificates": certificates,
        "stats": {
            "hits_per_target": [len(h) for h in v.hits],
            "planned": v.report["planned_total"],
            "N": N,
        },
        **fu,
    }


E7_EXPECTED = {
    "z/2": "not_recurrent",
    "z+2": "not_recurrent",
    "z+0.8": "frequently_hypercyclic_and_multiply_recurrent",
    "const_i": "constant_recurrent",
    "const_2": "constant_not_recurrent",
}


def run_e7(p: SimpleNamespace, outdir: Path) -> dict:
    """Adjoint-multiplier classification for the catalogue symbols."""
    symbols = {
        "z/2": PolySymbol((0, 0.5)),
        "z+2": PolySymbol((2, 1)),
        "z+0.8": PolySymbol((0.8, 1)),
        "const_i": PolySymbol.constant(1j),
        "const_2": PolySymbol.constant(2),
    }
    verdicts = {}
    certificates = []
    for name, phi in symbols.items():
        sv = classify_adjoint(phi)
        verdicts[name] = sv.kind.value
        if sv.certificate is not None:
            certificates.append(
                {"type": "range", "symbol": name, "phi": phi.to_config(),
                 "certificate": sv.certificate.to_config()}
            )
        if verdicts[name] != E7_EXPECTED[name]:
            raise ScenarioError(
                f"{name}: expected {E7_EXPECTED[name]}, got {verdicts[name]}"
            )
    return {
        "verdicts": verdicts,
        "certificates": certificates,
        "stats": {"symbols": len(symbols)},
    }


SCENARIOS = {
    "E1": run_e1,
    "E2": run_e2,
    "E3": run_e3,
    "E4": run_e4,
    "E5": run_e5,
    "E6": run_e6,
    "E7": run_e7,
}


def run_scenario(cfg: dict, outdir: Path) -> dict:
    sid, p = scenario_params(cfg)
    return write_report(outdir, sid, cfg, SCENARIOS[sid](p, outdir))


# ---------------------------------------------------------------------------
# report verification
# ---------------------------------------------------------------------------

def _close(got: float, recorded: float) -> bool:
    """Relative 1e-9 agreement between a recomputed and a recorded value."""
    return abs(got - recorded) <= 1e-9 * (1.0 + abs(got))


def _cert_field(cert: dict, key: str, kind: Kind, default=REQUIRED, what: str | None = None):
    """A certificate field read as ``kind``; a missing or null field takes
    the default, if there is one."""
    what = what or cert.get("type")
    if default is not REQUIRED and cert.get(key) is None:
        return default
    if key not in cert:
        raise ConfigError(f"{what} certificate has no field {key!r}")
    return _read(kind, cert[key], f"{what} certificate field {key!r}")


def _verify_products(cert: dict, kind: str) -> bool:
    """A salas or mr_shift certificate: the product inequalities at its n."""
    weights = _cert_field(cert, "weights", WEIGHTS)
    n, q = _cert_field(cert, "n", INT), _cert_field(cert, "q", INT)
    m = _cert_field(cert, "m", INT) if kind == "mr_shift" else 1
    eps = _cert_field(cert, "eps", NUMBER)
    fwd, bwd = (tuple(_cert_field(cert, key, list_of(NUMBER)))
                for key in ("forward_logs", "backward_logs"))
    if (min(n, m) < 1 or q < 0 or not 0 < eps < 1 or not weights.bilateral_ok
            or not len(fwd) == len(bwd) == m * (2 * q + 1)):
        return False
    _check_cap(m * n + q, f"{kind} product length")
    # a salas certificate is the m = 1 case of an mr_shift one; a weight
    # table too short for its products is a malformed certificate
    return _checked(MRShiftCertificate(weights, n, m, q, eps, fwd, bwd).verify)


def _verify_range(cert: dict) -> bool:
    body = _cert_field(cert, "certificate", OBJECT)
    phi = PolySymbol(tuple(_cert_field(cert, "phi", list_of(COMPLEX))))

    def field(key, kind, default=REQUIRED):
        return _cert_field(body, key, kind, default, what="range")

    kind = field("kind", STRING)
    try:
        range_kind = RangeKind(kind)
    except ValueError as e:
        raise ConfigError(f"range certificate: {e}") from e
    numbers = ("boundary_min", "boundary_max", "slack", "min_exact", "max_exact")
    return RangeCertificate(
        range_kind, field("tol", NUMBER), field("grid", INT),
        *(field(key, NUMBER) for key in numbers),
        winding=field("winding", INT, None),
        witness=field("witness", COMPLEX, None),
        margin=field("margin", NUMBER, 0.0),
    ).verify(phi)


def _verify_series(cert: dict) -> bool:
    weights = _cert_field(cert, "weights", WEIGHTS)
    n_max = _cert_field(cert, "n_max", INT)
    cap = _cert_field(cert, "cap", NUMBER, 12.0)
    recorded_kind = _cert_field(cert, "kind", STRING)
    partial_sum = _cert_field(cert, "partial_sum", NUMBER)
    if n_max < 10:
        return False
    _check_cap(n_max, "series n_max")
    sv = _checked(fhc_series_check, weights, n_max, cap=cap)
    return sv.kind == recorded_kind and _close(sv.partial_sum, partial_sum)


def _verify_certificate(cert: dict, report_dir: Path, hits_cache: dict) -> bool:
    kind = cert.get("type")
    if kind in ("salas", "mr_shift"):
        return _verify_products(cert, kind)
    if kind == "range":
        return _verify_range(cert)
    if kind == "series":
        return _verify_series(cert)
    if kind == "ap_witness":
        path = report_dir / _cert_field(cert, "hits_artifact", STRING)
        a, k, m, tau = (_cert_field(cert, key, INT) for key in ("a", "k", "m", "tau"))
        if min(a, k, m, tau) < 1:
            return False
        if path not in hits_cache:
            hits_cache[path] = _load_hits(path)
        hits = hits_cache[path]
        # in Python ints: the progression must fit below the last hit, so
        # its int64 members cannot wrap
        if m + 1 > hits.size or a + m * tau * k > int(hits[-1]):
            return False
        members = a + tau * k * np.arange(m + 1)
        pos = np.searchsorted(hits, members)
        return bool(np.all(pos < hits.size)) and bool(np.all(hits[pos] == members))
    if kind == "mr_witness":
        ell, m = _cert_field(cert, "ell", INT), _cert_field(cert, "m", INT)
        radius = _cert_field(cert, "radius", NUMBER)
        op_cfg = _cert_field(cert, "operator", OBJECT)
        u_artifact = _cert_field(cert, "u_artifact", STRING)
        center = _cert_field(cert, "center", STRING)
        if ell < 1 or m < 0 or m * ell >= 2**63:
            return False
        try:
            recorded = [float(d) for d in cert.get("distances", [])]
        except (TypeError, ValueError):
            return False
        if len(recorded) != m + 1:
            return False
        T = operator_from_config(op_cfg)
        u = read_vector_csv(report_dir / u_artifact, T.side)
        # T^{m*ell} moves index i to i - m*ell, which must stay an int64
        if u.nnz and int(u.indices[0]) - m * ell < -(2**63):
            return False
        y = parse_vector(center, T.side)
        dists = witness_distances(T, u, y, ell, m)
        return all(d < radius and _close(d, rec) for d, rec in zip(dists, recorded))
    return False


def _load_hits(path: Path) -> np.ndarray:
    """The ``n`` column of a hit-set artifact; it must be strictly increasing."""
    (hits,) = _read_csv_columns(path, {"n": int})
    if np.any(hits[1:] <= hits[:-1]):
        raise ConfigError(f"artifact {path}: hits must be strictly increasing")
    return hits


def verify_report(path: Path) -> list[tuple[str, bool]]:
    try:
        report = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read report {path}: {e}") from e
    if not isinstance(report, dict):
        raise ConfigError(f"report {path}: root must be an object")
    certs = report.get("certificates", [])
    if not isinstance(certs, list) or not all(isinstance(c, dict) for c in certs):
        raise ConfigError(f"report {path}: 'certificates' must be a list of objects")
    hits_cache: dict[Path, np.ndarray] = {}
    results = []
    for i, cert in enumerate(certs):
        ok = _verify_certificate(cert, path.parent, hits_cache)
        results.append((f"{i}:{cert.get('type')}", ok))
    return results


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _load_config(path: str | None, overrides: dict) -> dict:
    cfg = {}
    if path:
        try:
            cfg = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be an object")
    merged = dict(overrides)
    merged.update(cfg)  # config file wins over flags
    return merged


# the commands that take their PARAMS keys as flags, with their help lines
FLAG_COMMANDS = {
    "classify-seq": "ratio-classify a scaling sequence",
    "check-salas": "bilateral hypercyclicity products",
    "check-mr": "multiple-recurrence products",
    "check-series": "sum (w_1..w_n)^-2 behaviour",
    "ap-find": "arithmetic progressions in a hit set",
    "classify-symbol": "adjoint-multiplier class of a symbol",
}


def flag_name(key: str) -> str:
    return "--" + key.replace("_", "-")


def _add_flags(p: argparse.ArgumentParser, rows: dict[str, Param]) -> None:
    """One flag per key; a family key also takes its scalar keys as flags
    (dest "key.param"). Absent flags stay absent, so resolve fills in the
    defaults and reports a missing required key."""
    for key, row in rows.items():
        kind, default, limits = param_cells(row)
        if row.default is not REQUIRED:
            default = f"default {default}"
        p.add_argument(flag_name(key), dest=key,
                       help=", ".join(filter(None, (kind, default, limits))))
        for param in family_flags(row.kind):
            p.add_argument(flag_name(param), dest=f"{key}.{param}",
                           metavar=param.upper(), help=f"{kind} key {param!r}")


def _parse_flag(kind: Kind, text: str, flag: str, cmd: str):
    try:
        return kind.parse(text)
    except ValueError:
        raise ConfigError(f"{cmd}: {flag} must be {kind.name}, got {text!r}") from None


def _flag_config(ns, rows: dict[str, Param]) -> dict:
    """A flag command's argv as a config object: each flag's text parsed by
    its key's kind. A family key's scalar flags are parsed by the named
    family's rows; one that family does not have is left as text for
    resolve to reject."""
    given = vars(ns)
    out = {}
    for key, row in rows.items():
        if key not in given:
            continue
        out[key] = value = _parse_flag(row.kind, given[key], flag_name(key), ns.cmd)
        for param in family_flags(row.kind):
            text = given.get(f"{key}.{param}")
            if text is None:
                continue
            fam = row.kind.families.get(value["family"])
            prow = fam.rows.get(param) if fam else None
            value[param] = text if prow is None else _parse_flag(
                prow.kind, text, flag_name(param), ns.cmd)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="orbitlab", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("run", help="run a scenario from a config file")
    p.add_argument("--config", help="JSON config path")
    p.add_argument("--scenario", help="scenario id (built-in defaults)")
    p.add_argument("--out", default="out", help="output directory")

    for cmd, text in FLAG_COMMANDS.items():
        _add_flags(sub.add_parser(cmd, help=text, argument_default=argparse.SUPPRESS),
                   PARAMS[cmd])

    for cmd, text in (("build-fu", "build a frequently-universal vector"),
                      ("mr-witness", "multiple-recurrence witness search")):
        p = sub.add_parser(cmd, help=text)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default="out")

    p = sub.add_parser("verify", help="re-verify certificates in a report")
    p.add_argument("--report", required=True)

    ns = ap.parse_args(argv)
    try:
        return _dispatch(ns)
    except tuple(EXIT_CODES) as e:
        code, label = next(EXIT_CODES[c] for c in type(e).__mro__ if c in EXIT_CODES)
        print(f"{label}: {e}", file=sys.stderr)
        return code


def _dispatch(ns) -> int:
    if ns.cmd == "run":
        overrides = {"scenario": ns.scenario} if ns.scenario else {}
        cfg = _load_config(ns.config, overrides)
        report = run_scenario(cfg, Path(ns.out))
        print(f"scenario {report['scenario']}: ok -> {ns.out}/report.json")
        return EXIT_OK

    if ns.cmd in FLAG_COMMANDS:
        p = resolve(_flag_config(ns, PARAMS[ns.cmd]), PARAMS[ns.cmd], ns.cmd)
    elif ns.cmd in PARAMS:
        cfg = _load_config(ns.config, {})
        p = resolve(cfg, PARAMS[ns.cmd], ns.cmd)

    if ns.cmd == "classify-seq":
        restrict = None if p.restrict_mod is None else (p.restrict_mod, p.restrict_res)
        v = _checked(ratio_classify, p.family, p.tau, N=p.horizon, tol=p.tol,
                     restrict=restrict)
        print(f"family={ns.family} tau={p.tau} verdict={v.kind}"
              + (f" limit={v.limit}" if v.is_bad else "")
              + (f" note={v.note}" if v.note else ""))
        print("last ratios:", " ".join(f"{r:.6g}" for r in v.evidence))
        return EXIT_OK

    if ns.cmd in ("check-salas", "check-mr"):
        # check-salas is the order-1 search and has no --m
        out = _product_search(p.weights, getattr(p, "m", 1), p.q, p.eps, p.nmax)
        if out:
            c = out.certificate
            print(f"witness n={c.n} (verify: {c.verify()})")
        else:
            print(f"none found up to N_max={p.nmax}; diagnostics {out.diagnostics}")
        return EXIT_OK

    if ns.cmd == "check-series":
        sv = fhc_series_check(p.weights, p.nmax, cap=p.cap)
        print(f"{sv.kind} partial_sum={sv.partial_sum:.9g}"
              + (f" tail_bound={sv.tail_bound:.3e}" if sv.tail_bound else "")
              + (f" crossed_cap_at={sv.crossed_cap_at}" if sv.crossed_cap_at else ""))
        return EXIT_OK

    if ns.cmd == "ap-find":
        hits = _load_hits(Path(p.hits))
        try:
            h = HittingSet(hits, p.nmax)
        except ValueError as e:
            raise ConfigError(f"hit set {p.hits}: {e}") from e
        w = find_ap(h, p.m, p.tau, p.max_k)
        if w is None:
            print("none")
        else:
            print(f"a={w.a} k={w.k} members={w.members().tolist()}")
        return EXIT_OK

    if ns.cmd == "build-fu":
        T = operator_from_config(p.operator)
        targets = [(parse_vector(t.vector), t.eps) for t in p.targets]
        v = _checked(build, p.scaling, T, targets, p.N, g=p.g, n_min=p.n_min)
        outdir = Path(ns.out)
        write_report(outdir, "build-fu", cfg, {
            "verdicts": {"fu_build": "ok"},
            "stats": v.report,
            **_fu_outputs(outdir, v, densities=False),
        })
        print(f"built: {v.x.nnz} coefficients, report -> {ns.out}/report.json")
        return EXIT_OK

    if ns.cmd == "mr-witness":
        T = operator_from_config(p.operator)
        x = read_vector_csv(Path(p.vector_csv), T.side)
        ball = Ball(parse_vector(p.center, T.side), p.eps)
        out = _checked(mr_witness_search, x, p.scaling, T, ball, p.m, p.tau, p.N, K=p.K)
        if not out:
            raise ScenarioError(f"witness search failed: {out.diagnostics}")
        w = out.witness
        outdir = Path(ns.out)
        art = vector_csv(outdir, "witness_u.csv", w.u)
        write_report(outdir, "mr-witness", cfg, {
            "verdicts": {"mr_witness": {"ell": w.ell, "a": w.a, "k": w.k}},
            "certificates": [_mr_cert(w, art, _op_cfg(T), p.center)],
            "stats": out.diagnostics,
            "artifacts": {"witness_u": art},
        })
        print(f"witness ell={w.ell} a={w.a}; report -> {ns.out}/report.json")
        return EXIT_OK

    if ns.cmd == "classify-symbol":
        sv = classify_adjoint(PolySymbol(tuple(p.coeffs)))
        print(sv.kind.value)
        if sv.certificate is not None:
            c = sv.certificate
            print(f"range: {c.kind.value} boundary=[{c.min_exact:.6g}, "
                  f"{c.max_exact:.6g}] winding={c.winding} witness={c.witness}")
        return EXIT_OK

    if ns.cmd == "verify":
        results = verify_report(Path(ns.report))
        ok = all(v for _, v in results)
        for name, v in results:
            print(f"{name}: {'ok' if v else 'FAILED'}")
        if not results:
            print("no certificates embedded")
        return EXIT_OK if ok else EXIT_ASSERTION

    raise ConfigError(f"unknown command {ns.cmd}")


if __name__ == "__main__":
    sys.exit(main())
