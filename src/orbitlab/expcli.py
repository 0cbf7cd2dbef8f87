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
import enum
import json
import math
import re
import sys
import warnings
from dataclasses import dataclass
from functools import cache, partial
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
from . import _kernels
from .fhbuilder import BuildError, build
# dist is not called here; it stays importable as expcli.dist because the
# benchmark's tracer self-test (perfbench/test_perfbench.py) patches that name
from .lspace import Ball, CoefVec, Side, dist, norm  # noqa: F401
from .orbits import (
    HittingSet,
    density_stats,
    find_ap,
    mr_witness_search,
    recurrence_scan,
    witness_distances,
)
from .seqcore import AngleSpec, ScalingSeq, ratio_classify, rotate_seq, wrap_phase
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
    own. ``write`` turns the Python form back into JSON, as reports record
    it."""

    name: str
    read: Callable[[object], object]
    parse: Callable[[str], object] | None = None
    families: dict | None = None
    key_flags: bool = False
    write: Callable[[object], object] = lambda v: v


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


def _read_float_text(v) -> float:
    """A number, or a string as reports record floats (NaN if float() fails)."""
    if not isinstance(v, str):
        return _read_number(v)
    try:
        return float(v)
    except ValueError:
        return math.nan


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
    return Kind(f"list of {kind.name}", read, parse,
                write=lambda items: [kind.write(item) for item in items])


def one_of(cls: type[enum.Enum]) -> Kind:
    """An enum, recorded as its member's value."""
    def read(v):
        try:
            return cls(v)
        except (ValueError, TypeError):
            raise TypeError from None
    return Kind(f"one of {', '.join(m.value for m in cls)}", read, write=lambda m: m.value)


INT = Kind("int", _read_int, int)
NUMBER = Kind("number", _read_number, float)
# a number or [re, im]
COMPLEX = Kind("complex", _read_complex, _parse_complex, write=lambda z: [z.real, z.imag])
STRING = Kind("string", _instance_of(str), str)
FLOAT_TEXT = Kind("number or string", _read_float_text, write=repr)
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
# eps enters the product checks as log(1/eps): a subnormal eps has 1/eps =
# inf, which would put -Infinity, no JSON number, into the report
RECIPROCAL_FINITE = Range("1/eps finite", lambda v: v != 0 and abs(1 / v) < math.inf)
UNIT_EPS = Range("in (0, 1), 1/eps finite", lambda v: 0 < v < 1 and 1 / v < math.inf)
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
    """An object kind whose keys are read through their own table, and
    written from the attributes of the same name."""
    return Kind(name, lambda v: resolve(_instance_of(dict)(v), rows, name),
                write=lambda obj: write_rows(rows, obj))


def write_rows(rows: dict[str, Param], obj=None, /, **given) -> dict:
    """Each row's value in JSON form, taken from ``given`` or else from
    ``obj``'s attribute of the row's name; None is written as null."""
    values = {key: given[key] if key in given else getattr(obj, key) for key in rows}
    return {key: None if v is None else rows[key].kind.write(v) for key, v in values.items()}


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
    return Kind(name, read, parse, families, key_flags, write=lambda obj: obj.to_config())


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
        "eps": Param(NUMBER, 0.5, UNIT_EPS),
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
        "eps": Param(NUMBER, range=UNIT_EPS),
        "q": Param(INT, range=at_least(0)),
        "nmax": horizon(10**4),
    },
    "check-mr": {
        "weights": Param(WEIGHTS, range=BILATERAL),
        "m": Param(INT, range=at_least(1)),
        "q": Param(INT, range=at_least(0)),
        "eps": Param(NUMBER, range=UNIT_EPS),
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


def make_outdir(outdir: Path) -> Path:
    """Create a command's output directory before its work starts, so an
    unusable ``--out`` (a file, or a path through one) is a config error and
    not a traceback after the whole run."""
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot write --out {outdir}: {e}") from e
    return outdir


def write_report(outdir: Path, scenario: str, cfg: dict, body: dict) -> dict:
    """Wrap a command's results in the report envelope and write report.json.

    ``config`` is the config as the user typed it, not the resolved one. A
    body without ``density_tables``, ``certificates`` or ``artifacts`` gets
    them empty. ``outdir`` must exist (``make_outdir``).
    """
    report = {"format": REPORT_FORMAT, "scenario": scenario, "config": cfg,
              "density_tables": {}, "certificates": [], "artifacts": {}, **body}
    (outdir / "report.json").write_text(canonical_json(report))
    return report


# Rows per batch when writing CSV. It sizes the writer's row matrix, mask
# and scratch. Writing a 200k-row vector table of 17-digit floats and a
# 200k-row hit table took 150, 135, 126 and 127 ms in batches of 2k, 4k, 8k
# and 16k rows (medians of seven, 2 CPUs), while the traced peak doubled
# with each step: 0.85, 1.70, 3.39 and 6.76 MiB.
CSV_BATCH_ROWS = 1 << 12
# Below this many rows a batch's float cells all go to repr: the kernel's
# fixed cost, about 0.1 ms, is that of repr on some 64 cells.
CSV_KERNEL_MIN_ROWS = 64

# A cell is a right-aligned field in its row of the batch's byte matrix:
# int64 in 20 bytes (19 digits and the sign), float64 in 24 (repr's longest
# is "-2.2250738585072014e-308"). A 4-byte gap follows each field, the comma
# or CRLF and padding, so that every field starts on a 4-byte word.
_INT_FIELD, _FLOAT_FIELD, _GAP = 20, 24, 4
# the four ASCII digits of i, as the bytes of one uint32 word; built from
# uint8 digit grids, so that no temporary outgrows the 40 kB table (int64
# temporaries left perfbench criteria_search's peak RSS 0.5 MB higher)
_DIGITS4 = np.ascontiguousarray(np.moveaxis(np.indices((10,) * 4, np.uint8) + 48, 0, -1)
                                ).view(np.uint32).ravel()
_ZEROS4 = _DIGITS4[0]
# _KEEP[i] keeps the bytes of a float field from i on, as uint32 words
_KEEP = (np.arange(_FLOAT_FIELD) >= np.arange(_FLOAT_FIELD + 1)[:, None]).view(np.uint32)
_POW10_UINT = 10 ** np.arange(1, 20, dtype=np.uint64)
_ZERO_FIELD = np.frombuffer(b"0.0", np.uint8)


class _CsvRows:
    """Batches of CSV rows built whole. Every cell is formatted into its
    field of one uint8 row matrix, beside a mask of the cell's bytes, and a
    batch's bytes are one boolean compaction of the matrix, whose gaps hold
    the commas and CRLF. The matrix is allocated once per file."""

    def __init__(self, floats: list[bool], rows: int):
        widths = [_FLOAT_FIELD if fl else _INT_FIELD for fl in floats]
        self.fields = []
        self.matrix = np.zeros((rows, sum(widths) + _GAP * len(widths)), np.uint8)
        self.keep = np.zeros(self.matrix.shape, np.bool_)
        off = 0
        for j, (fl, w) in enumerate(zip(floats, widths)):
            self.fields.append((off, fl))
            end = b"\r\n" if j == len(widths) - 1 else b","
            self.matrix[:, off + w : off + w + len(end)] = np.frombuffer(end, np.uint8)
            self.keep[:, off + w : off + w + len(end)] = True
            off += w + _GAP
        # each row's first byte in the flattened matrix
        self.row_base = np.arange(rows) * self.matrix.shape[1]
        self.chunks = np.empty((6, rows), np.int64)
        self.scratch = np.empty((_kernels.SHORTEST_SCRATCH_ROWS, rows))

    def format(self, cols) -> bytes:
        m = len(cols[0])
        matrix, keep = self.matrix[:m], self.keep[:m]
        for (off, fl), c in zip(self.fields, cols):
            if fl:
                start, w = self._floats(np.asarray(c, np.float64), matrix, off), _FLOAT_FIELD
            else:
                start, w = self._ints(np.asarray(c, np.int64), matrix, off), _INT_FIELD
            # an int field is the last 20 bytes of a float one
            start += _FLOAT_FIELD - w
            keep.view(np.uint32)[:, off // 4 : (off + w) // 4] = np.take(_KEEP, start, axis=0)[
                :, (_FLOAT_FIELD - w) // 4 :
            ]
        return matrix[keep].tobytes()

    def _digits(self, mag, words) -> None:
        """Write mag (int64 or uint64 >= 0, below 10^20) as 20 zero-padded
        ASCII digits into words (m, 5), in 4-digit chunks; the chunks above
        the largest value's are zeros."""
        m = mag.size
        ch = self.chunks[:, :m].view(mag.dtype)
        used = -(-len(str(int(mag.max()))) // 4)
        np.copyto(ch[4], mag)
        for j in range(4, 5 - used, -1):
            np.floor_divide(ch[j], 10000, out=ch[j - 1])
            ch[j] -= np.multiply(ch[j - 1], 10000, out=ch[5])
        words[:, 5 - used :] = np.take(_DIGITS4, ch[5 - used : 5]).T
        words[:, : 5 - used] = _ZEROS4

    def _ints(self, v, matrix, off: int):
        """int64 cells over the whole range, -2^63 included: the digits of
        the uint64 magnitude and a sign. Returns the fields' starts."""
        neg = v < 0
        mag = v.view(np.uint64)
        signed = neg.any()
        if signed:
            mag = np.where(neg, -mag, mag)
        self._digits(mag, matrix.view(np.uint32)[:, off // 4 : off // 4 + 5])
        start = _INT_FIELD - 1 - np.searchsorted(_POW10_UINT, mag, side="right")
        if signed:
            self._sign(neg, start, matrix, off)
        return start

    def _sign(self, neg, start, matrix, off: int) -> None:
        """Put a minus before every field's digits, outside the window where
        the cell is not negative, and widen the window where it is."""
        at = self.row_base[: start.size] + (off - 1)
        at += start
        matrix.reshape(-1)[at] = ord("-")
        start -= neg

    def _floats(self, x, matrix, off: int):
        """float64 cells: the digits ``_kernels.shortest_digits`` decides,
        with repr's decimal point and sign, and ``repr`` for the rest; a
        column of +-0.0 alone (NaN counts as nonzero) is "0.0" and its signs.
        Returns the fields' starts."""
        m = x.size
        if not x.any():
            matrix[:, off + _FLOAT_FIELD - 3 : off + _FLOAT_FIELD] = _ZERO_FIELD
            start = np.full(m, _FLOAT_FIELD - 3)
            neg = np.signbit(x)
            if neg.any():
                self._sign(neg, start, matrix, off)
            return start
        if m < CSV_KERNEL_MIN_ROWS:
            start, rest = np.empty(m, np.int64), np.arange(m)
        else:
            ok, digits, frac, ndigits = _kernels.shortest_digits(x, self.scratch)
            # the digits with a 0 put in at the point: 10 d - 9 (d mod 10^frac),
            # where 10^18 > d takes all of d for a longer fraction
            tail = np.take(_kernels.POW10_INT, frac, mode="clip")
            np.remainder(digits, tail, out=tail)
            tail *= 9
            wide = np.multiply(digits, 10)
            wide -= tail
            words = matrix.view(np.uint32)[:, off // 4 : off // 4 + 6]
            words[:, 0] = _ZEROS4
            self._digits(wide, words[:, 1:])
            at = self.row_base[:m] + (off + _FLOAT_FIELD - 1)
            at -= frac
            matrix.reshape(-1)[at] = ord(".")
            start = np.subtract(_FLOAT_FIELD - 1, ndigits)
            neg = np.signbit(x)
            if neg.any():
                self._sign(neg, start, matrix, off)
            rest = np.flatnonzero(~ok)
        for i, cell in zip(rest.tolist(), x[rest].tolist()):
            b = repr(cell).encode()
            start[i] = _FLOAT_FIELD - len(b)
            matrix[i, off + start[i] : off + _FLOAT_FIELD] = np.frombuffer(b, np.uint8)
        return start


def write_csv(outdir: Path, name: str, header: list[str], cols) -> str:
    """Write equal-length numpy columns as CSV, one batch of rows per write.

    The bytes are those of ``csv.writer`` with floats passed through
    ``repr``: CRLF row endings, ints in decimal and floats as their shortest
    round-trip ``repr`` (``repr(int) == str(int)``). Integer columns are
    read as int64 and the rest as float64.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    n = len(cols[0])
    with (outdir / name).open("wb") as f:
        f.write((",".join(header) + "\r\n").encode())
        if n:
            floats = [np.asarray(c).dtype.kind not in "iu" for c in cols]
            rows = _CsvRows(floats, min(n, CSV_BATCH_ROWS))
            for lo in range(0, n, CSV_BATCH_ROWS):
                f.write(rows.format([c[lo : lo + CSV_BATCH_ROWS] for c in cols]))
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

    ``np.loadtxt`` reads the rows from the open file, a wanted column as its
    type (``int`` or ``float``) and any other as text. Rows end in LF or CRLF;
    blank lines are skipped. A missing file or column, a wrong cell count, a
    cell that is no plain ASCII decimal or a non-finite cell raises ConfigError.
    """
    try:
        with path.open() as f, warnings.catch_warnings():
            header = f.readline()
            if not header:
                raise ConfigError(f"artifact {path} is empty; expected a header row")
            header = header.rstrip("\n").split(",")
            for col in wanted:
                if col not in header:
                    raise ConfigError(f"artifact {path} has no column {col!r} (header {header})")
            kinds = {header.index(col): np.int64 if kind is int else np.float64
                     for col, kind in wanted.items()}
            dtype = [(str(j), kinds.get(j, object)) for j in range(len(header))]
            # a header-only file has no rows; that is no reason for a warning
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            try:
                table = np.loadtxt(f, dtype, delimiter=",", comments=None, quotechar=None, ndmin=1)
            except ValueError as e:
                # a wrong cell count is found only now (the header's count is
                # right; undecodable bytes raise their UnicodeDecodeError again)
                f.seek(0)
                ncols = len(header)
                if any(row.count(",") != ncols - 1 for row in f if row != "\n"):
                    raise ConfigError(f"artifact {path}: every row must have {ncols} cells") from e
                raise ConfigError(f"artifact {path}: {e}") from e
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read artifact {path}: {e}") from e
    for j, col in zip(kinds, wanted):
        if not np.isfinite(table[str(j)]).all():
            raise ConfigError(f"artifact {path}, column {col!r}: a cell is not a finite number")
    return [table[str(j)] for j in kinds]


def read_vector_csv(path: Path, side: Side) -> CoefVec:
    idx, lms, phs = _read_csv_columns(path, {"index": int, "log_mag": float, "phase": float})
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


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def _op_cfg(T: ShiftOp) -> dict:
    return {
        "side": T.side.value,
        "weights": WEIGHTS.write(T.weights),
        "premultiplier": COMPLEX.write(T.premultiplier),
    }


def _coeffwise_close(x: CoefVec, y: CoefVec, tol: float) -> bool:
    if x.nnz != y.nnz or not np.array_equal(x.indices, y.indices):
        return False
    # one pass decides almost every call; allclose's own test also counts
    # equal infinities as close
    with np.errstate(invalid="ignore"):
        near = bool((np.abs(x.log_mags - y.log_mags) <= tol).all())
    if not (near or np.allclose(x.log_mags, y.log_mags, atol=tol, rtol=0)):
        return False
    return bool(np.all(np.abs(wrap_phase(x.phases - y.phases)) <= tol))


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
    fwd = (w.cum(sample) - w.cum(np.array([0]))).tolist()  # forward_log(0, n) per n
    worst = max(abs(f - 0.5 * math.log(float(n) + 1.0)) for f, n in zip(fwd, sample.tolist()))
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
        "certificates": [certificate("series", sv, weights=w)],
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
        certificates.append(certificate("ap_witness", w, hits_artifact=arts["hitting_0"]))

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
    certificates.append(certificate("mr_witness", w, u_artifact=arts["witness_u"],
                                    operator=_op_cfg(T2), center=center))

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
            certificates.append(certificate("range", symbol=name, phi=phi.coeffs,
                                            certificate=sv.certificate))
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
    make_outdir(outdir)
    return write_report(outdir, sid, cfg, SCENARIOS[sid](p, outdir))


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def _close(got: float, recorded: float) -> bool:
    """Relative 1e-9 agreement between a recomputed and a recorded value."""
    return abs(got - recorded) <= 1e-9 * (1.0 + abs(got))


def _same(got, recorded) -> bool:
    """A recomputed value against its recorded one: floats to ``_close``,
    sequences item by item, anything else equal."""
    if isinstance(got, float) and isinstance(recorded, float):
        return _close(got, recorded)
    if isinstance(got, (list, tuple)) and isinstance(recorded, (list, tuple)):
        return len(got) == len(recorded) and all(map(_same, got, recorded))
    return got == recorded


def _verify_products(c: SimpleNamespace, *_) -> bool:
    """A salas or mr_shift certificate: the product inequalities at its n."""
    # a salas certificate is the m = 1 case of an mr_shift one
    cert = MRShiftCertificate(**{"m": 1, **vars(c)})
    n, m, q = cert.n, cert.m, cert.q
    if (min(n, m) < 1 or q < 0 or not 0 < cert.eps < 1 or not cert.weights.bilateral_ok
            or not len(cert.forward_logs) == len(cert.backward_logs) == m * (2 * q + 1)):
        return False
    _check_cap(m * n + q, "product length")
    # a weight table too short for its products is a malformed certificate
    return _checked(cert.verify)


def _verify_series(c: SimpleNamespace, *_) -> bool:
    """A series certificate: the scan re-run matches every recorded field."""
    if c.n_max < 10:
        return False
    _check_cap(c.n_max, "series n_max")
    sv = _checked(fhc_series_check, c.weights, c.n_max, cap=c.cap)
    return all(_same(getattr(sv, key), v) for key, v in vars(c).items() if key != "weights")


def _verify_range(c: SimpleNamespace, *_) -> bool:
    cert = RangeCertificate(**vars(c.certificate))
    _check_cap(cert.grid, "range grid")
    return cert.verify(PolySymbol(tuple(c.phi)))


def _verify_ap_witness(c: SimpleNamespace, report_dir: Path, hits_cache: dict) -> bool:
    a, k, m, tau = c.a, c.k, c.m, c.tau
    if min(a, k, m, tau) < 1:
        return False
    path = report_dir / c.hits_artifact
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


def _verify_mr_witness(c: SimpleNamespace, report_dir: Path, _) -> bool:
    ell, m = c.ell, c.m
    if ell < 1 or m < 0 or m * ell >= 2**63 or len(c.distances) != m + 1:
        return False
    T = operator_from_config(c.operator)
    u = read_vector_csv(report_dir / c.u_artifact, T.side)
    # T^{m*ell} moves index i to i - m*ell, which must stay an int64
    if u.nnz and int(u.indices[0]) - m * ell < -(2**63):
        return False
    y = parse_vector(c.center, T.side)
    dists = witness_distances(T, u, y, ell, m)
    return all(d < c.radius and _close(d, rec) for d, rec in zip(dists, c.distances))


@dataclass(frozen=True)
class CertificateKind:
    """One certificate kind: its fields, and the check that re-derives its
    claim from their resolved values, the report's directory and a cache of
    the hit sets read so far. A degenerate certificate fails its check."""

    rows: dict[str, Param]
    check: Callable[[SimpleNamespace, Path, dict], bool]


PRODUCTS = {
    "weights": Param(WEIGHTS),
    **dict.fromkeys(("n", "q"), Param(INT)),
    "eps": Param(NUMBER, range=RECIPROCAL_FINITE),
    **dict.fromkeys(("forward_logs", "backward_logs"), Param(list_of(NUMBER))),
}

# the body of a range certificate: a symbolops.RangeCertificate
RANGE_TEST = {
    "kind": Param(one_of(RangeKind)),
    "grid": Param(INT),
    **dict.fromkeys(("tol", "boundary_min", "boundary_max", "slack", "min_exact",
                     "max_exact"), Param(NUMBER)),
    "winding": Param(INT, None),
    "witness": Param(COMPLEX, None),
    "margin": Param(NUMBER, 0.0),
}

# Every certificate kind a report embeds, by its "type": the scenarios write
# them with certificate() and verify reads them with resolve.
CERTIFICATES = {
    "salas": CertificateKind(PRODUCTS, _verify_products),
    "mr_shift": CertificateKind({**PRODUCTS, "m": Param(INT)}, _verify_products),
    "series": CertificateKind({
        "weights": Param(WEIGHTS),
        "n_max": Param(INT),
        "cap": Param(NUMBER, 12.0),
        "kind": Param(STRING),
        "partial_sum": Param(NUMBER),
        "grid": Param(list_of(INT)),
        "grid_sums": Param(list_of(NUMBER)),
        "mode": Param(STRING),
        "tail_bound": Param(NUMBER, None),
        "crossed_cap_at": Param(INT, None),
    }, _verify_series),
    "range": CertificateKind({
        "symbol": Param(STRING, None),
        "phi": Param(list_of(COMPLEX)),
        "certificate": Param(table("range test", RANGE_TEST)),
    }, _verify_range),
    "ap_witness": CertificateKind({
        **dict.fromkeys(("a", "k", "m", "tau"), Param(INT)),
        "hits_artifact": Param(STRING),
    }, _verify_ap_witness),
    "mr_witness": CertificateKind({
        **dict.fromkeys(("ell", "m", "a", "k", "tau"), Param(INT)),
        "radius": Param(NUMBER),
        "center": Param(STRING),
        "distances": Param(list_of(FLOAT_TEXT)),
        "u_artifact": Param(STRING),
        "operator": Param(OBJECT),
    }, _verify_mr_witness),
}


def certificate(kind: str, obj=None, /, **given) -> dict:
    """A report's certificate of this kind: each field from ``given``, or
    else from ``obj``'s attribute of the same name."""
    return {"type": kind, **write_rows(CERTIFICATES[kind].rows, obj, **given)}


def _verify_certificate(cert: dict, report_dir: Path, hits_cache: dict) -> bool:
    """A certificate's check on its fields; an unknown type fails."""
    name = cert.get("type")
    kind = CERTIFICATES.get(name) if isinstance(name, str) else None
    if kind is None:
        return False
    fields = {key: v for key, v in cert.items() if key != "type"}
    return kind.check(resolve(fields, kind.rows, f"{name} certificate"), report_dir, hits_cache)


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
    return [(f"{i}:{cert.get('type')}", _verify_certificate(cert, path.parent, hits_cache))
            for i, cert in enumerate(certs)]


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


@cache
def _parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process, since building it costs
    far more than a parse. Every call shares it, so nothing may change it
    after this returns (no ``set_defaults``, no new arguments)."""
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
    return ap


def main(argv: list[str] | None = None) -> int:
    ns = _parser().parse_args(argv)
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
        outdir = make_outdir(Path(ns.out))
        v = _checked(build, p.scaling, T, targets, p.N, g=p.g, n_min=p.n_min)
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
        outdir = make_outdir(Path(ns.out))
        out = _checked(mr_witness_search, x, p.scaling, T, ball, p.m, p.tau, p.N, K=p.K)
        if not out:
            raise ScenarioError(f"witness search failed: {out.diagnostics}")
        w = out.witness
        art = vector_csv(outdir, "witness_u.csv", w.u)
        write_report(outdir, "mr-witness", cfg, {
            "verdicts": {"mr_witness": {"ell": w.ell, "a": w.a, "k": w.k}},
            "certificates": [certificate("mr_witness", w, u_artifact=art,
                                         operator=_op_cfg(T), center=p.center)],
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
