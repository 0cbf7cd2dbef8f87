"""Config-driven experiment runner and command-line surface.

Scenarios E1-E7 reproduce the catalogue of worked examples end to end and
emit a JSON report plus CSV artifacts. Reports are byte-deterministic:
no timestamps, no absolute paths, no wall-clock stats, and every scan runs
over the same fixed chunk grid, merged in order. Exit codes: 0 ok,
2 config/schema error, 3 scenario assertion failed, 4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from operator import methodcaller
from pathlib import Path

import numpy as np

from .criteria import (
    MRShiftCertificate,
    SalasCertificate,
    fhc_series_check,
    mr_shift_check,
    norm_decay_check,
    salas_check,
)
from .fhbuilder import build, verify_fu
from .lspace import Ball, CoefVec, Side, dist, norm
from .orbits import (
    HittingSet,
    MRWitness,
    find_ap,
    mr_witness_search,
    recurrence_scan,
)
from .seqcore import ScalingSeq, ratio_classify
from .shiftops import ShiftOp, WeightSeq, product_table, scaled_orbit_point
from .symbolops import PolySymbol, RangeCertificate, classify_adjoint

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_ASSERTION = 3
EXIT_RESOURCE = 4

RESOURCE_CAP_N = 20_000_000


class ConfigError(ValueError):
    """Invalid or missing configuration."""


class ScenarioError(RuntimeError):
    """A scenario-level assertion failed."""


class ResourceCapError(RuntimeError):
    """Configured horizon exceeds the documented resource cap."""


# ---------------------------------------------------------------------------
# config parsing
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
    return CoefVec.from_pairs(side, pairs)


def _complex_from(v) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(v[0], v[1])
    raise ConfigError(f"expected number or [re, im], got {v!r}")


def operator_from_config(cfg: dict) -> ShiftOp:
    try:
        side = Side(cfg.get("side", "unilateral"))
        weights = WeightSeq.from_config(cfg["weights"])
        pm = _complex_from(cfg.get("premultiplier", 1.0))
        return ShiftOp(side, weights, pm)
    except (KeyError, ValueError) as e:
        raise ConfigError(f"bad operator config: {e}") from e


def scaling_from_config(cfg: dict) -> ScalingSeq:
    try:
        return ScalingSeq.from_config(cfg)
    except (KeyError, ValueError) as e:
        raise ConfigError(f"bad scaling config: {e}") from e


def _require(cfg: dict, key: str, kind=None):
    if key not in cfg:
        raise ConfigError(f"missing config key {key!r}")
    v = cfg[key]
    if kind is not None and not isinstance(v, kind):
        raise ConfigError(f"config key {key!r} has wrong type {type(v).__name__}")
    return v


def _check_caps(*horizons: int) -> None:
    for n in horizons:
        if n > RESOURCE_CAP_N:
            raise ResourceCapError(f"horizon {n} exceeds resource cap {RESOURCE_CAP_N}")


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def write_report(outdir: Path, report: dict) -> Path:
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "report.json"
    path.write_text(canonical_json(report))
    return path


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
    or a non-numeric cell raises ConfigError.
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
                arr[lo:lo + CSV_BATCH_ROWS] = list(map(kind, cells[header.index(col)::ncols]))
            except (ValueError, OverflowError) as e:
                raise ConfigError(f"artifact {path}, column {col!r}: {e}") from e
    return out


def read_vector_csv(path: Path, side: Side) -> CoefVec:
    idx, lms, phs = _read_csv_columns(
        path, {"index": int, "log_mag": float, "phase": float}
    )
    try:
        return CoefVec.from_log_entries(side, idx, lms, phs)
    except ValueError as e:
        raise ConfigError(f"artifact {path}: {e}") from e


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


def run_e1(cfg: dict, outdir: Path) -> dict:
    """Geometric bad sequence: lam_n = w^{2n} with T = (1/w)B, w = a^{-1/2}."""
    a = _complex_from(cfg.get("a", 0.25))
    if not 0 < abs(a) < 1:
        raise ConfigError("need 0 < |a| < 1")
    N = int(cfg.get("N", 20000))
    _check_caps(N)
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
    v = build(lam, T, [(e1, float(cfg.get("eps", 1e-3)))], N)
    pairs = verify_fu(v)
    h, ds = pairs[0]

    rep_decay = norm_decay_check(T, CoefVec.basis(Side.UNILATERAL, 5), 200)
    if not rep_decay.ok:
        raise ScenarioError("norm decay bound violated")
    verdict = ratio_classify(lam, 1)
    if not (verdict.is_bad and verdict.limit is not None
            and abs(verdict.limit - abs(a)) <= 1e-6):
        raise ScenarioError(f"expected Bad({abs(a)}), got {verdict.kind}")

    arts = {
        "hitting_0": hitting_csv(outdir, "hitting_0.csv", h),
        "density_0": density_csv(outdir, "density_0.csv", ds),
        "fu_vector": vector_csv(outdir, "fu_vector.csv", v.x),
    }
    return {
        "verdicts": {
            "scaled_power_identity": "ok",
            "fu_build": "ok",
            "norm_decay": rep_decay.conclusion,
            "ratio": _ratio_verdict_dict(verdict),
        },
        "density_tables": {"target_0": _density_table(ds)},
        "certificates": [],
        "stats": {"hits": len(h), "planned": v.report["planned_total"], "N": N},
        "fu_plan": v.plan.to_config(),
        "artifacts": arts,
    }


def run_e2(cfg: dict, outdir: Path) -> dict:
    """Factorial bad sequence: lam_n = n! with the unweighted shift."""
    N = int(cfg.get("N", 2000))
    scan_N = int(cfg.get("recurrence_N", 500))
    _check_caps(N)
    lam = ScalingSeq.factorial()
    T = ShiftOp(Side.UNILATERAL, WeightSeq.constant(1.0))
    e1 = CoefVec.basis(Side.UNILATERAL, 1)
    v = build(lam, T, [(e1, float(cfg.get("eps", 1e-3)))], N)
    pairs = verify_fu(v)
    h, ds = pairs[0]

    eps_rec = 0.5 * norm(v.x)
    returns = recurrence_scan(T, v.x, eps_rec, scan_N)
    if returns.size:
        raise ScenarioError(f"unexpected return time {int(returns[0])}")
    verdict = ratio_classify(lam, 1, N=int(cfg.get("ratio_N", 10**4)))
    if not (verdict.is_bad and verdict.limit == 0.0):
        raise ScenarioError(f"expected Bad(0), got {verdict.kind}")

    arts = {
        "hitting_0": hitting_csv(outdir, "hitting_0.csv", h),
        "density_0": density_csv(outdir, "density_0.csv", ds),
        "fu_vector": vector_csv(outdir, "fu_vector.csv", v.x),
    }
    return {
        "verdicts": {
            "fu_build": "ok",
            "recurrence_scan": "empty",
            "ratio": _ratio_verdict_dict(verdict),
        },
        "density_tables": {"target_0": _density_table(ds)},
        "certificates": [],
        "stats": {"hits": len(h), "recurrence_horizon": scan_N, "N": N},
        "fu_plan": v.plan.to_config(),
        "artifacts": arts,
    }


def run_e3(cfg: dict, outdir: Path) -> dict:
    """Even/odd blocks lam_{2n} = 2^n: frequent universality along the evens.

    The even-index subspace identifies with the full space by e_{2k} -> e_k,
    under which lam_{2n} B^{2n} acts as (2B)^n. The builder runs against the
    compressed operator and the result is mapped back to even indices.
    """
    N = int(cfg.get("N", 10**5))
    _check_caps(N)
    lam = ScalingSeq.geom_even_odd()
    B = ShiftOp(Side.UNILATERAL, WeightSeq.constant(1.0))
    T2 = ShiftOp(Side.UNILATERAL, WeightSeq.constant(1.0), 2.0)
    e1 = CoefVec.basis(Side.UNILATERAL, 1)
    n_comp = N // 2
    v = build(ScalingSeq.constant(1.0), T2, [(e1, float(cfg.get("eps", 1e-3)))], n_comp)
    pairs = verify_fu(v)
    h_comp, ds = pairs[0]

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

    full = ratio_classify(lam, 1, N=int(cfg.get("ratio_N", 10**5)))
    evens = ratio_classify(lam, 1, N=int(cfg.get("ratio_N", 10**5)), restrict=(2, 0))
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
        "certificates": [],
        "stats": {"hits": len(h_comp), "N": N, "compressed_N": n_comp},
        "fu_plan": v.plan.to_config(),
        "artifacts": arts,
    }


def run_e4(cfg: dict, outdir: Path) -> dict:
    """Universal-but-not-hypercyclic bilateral shift: product test must fail."""
    n_max = int(cfg.get("N", 10**4))
    _check_caps(n_max)
    eps = float(cfg.get("eps", 0.5))
    q = int(cfg.get("q", 0))
    out = salas_check(WeightSeq.step_bilateral(), eps, q, n_max)
    if out:
        raise ScenarioError(f"unexpected product witness n={out.certificate.n}")
    return {
        "verdicts": {
            "salas": f"none found up to N_max={n_max}",
            "context": "universal scaled orbit exists; operator is not hypercyclic",
        },
        "density_tables": {},
        "certificates": [],
        "stats": {"best_margin": out.diagnostics.get("best_margin"),
                  "best_n": out.diagnostics.get("best_n"), "N": n_max},
        "artifacts": {},
    }


def run_e5(cfg: dict, outdir: Path) -> dict:
    """Mixing but not frequently hypercyclic: sqrt-ratio weights."""
    n_max = int(cfg.get("N", 10**6))
    _check_caps(n_max)
    w = WeightSeq.sqrt_ratio()
    pt = product_table(w, False, n_max)
    sample = np.unique(np.geomspace(1, n_max, 200).astype(np.int64))
    worst = 0.0
    for n in sample:
        got = pt.forward_log(0, int(n))
        want = 0.5 * math.log(float(n) + 1.0)
        worst = max(worst, abs(got - want))
    if worst > 1e-9:
        raise ScenarioError(f"product formula deviates by {worst}")
    sv = fhc_series_check(w, n_max, cap=float(cfg.get("cap", 12.0)))
    if sv.kind != "diverges_observed":
        raise ScenarioError(f"expected diverges_observed, got {sv.kind}")
    return {
        "verdicts": {
            "product_formula": f"max deviation {worst:.3e}",
            "series": sv.kind,
        },
        "density_tables": {},
        "certificates": [sv.to_config() | {"weights": w.to_config()}],
        "stats": {"partial_sum": sv.partial_sum, "crossed_cap_at": sv.crossed_cap_at,
                  "N": n_max},
        "artifacts": {},
    }


def run_e6(cfg: dict, outdir: Path) -> dict:
    """Full pipeline: builder, hitting sets, progression search, witness."""
    N = int(cfg.get("N", 10**5))
    _check_caps(N)
    g = int(cfg.get("g", 16))
    eps_build = float(cfg.get("eps", 1e-3))
    eps_wit = float(cfg.get("witness_eps", 0.01))
    m_wit = int(cfg.get("witness_m", 3))
    tau = int(cfg.get("tau", 1))

    T2 = ShiftOp(Side.UNILATERAL, WeightSeq.constant(1.0), 2.0)
    lam = ScalingSeq.constant(1.0)
    targets = [
        (parse_vector(s), eps_build)
        for s in cfg.get("targets", ["e(1)", "e(1)+e(2)", "e(2)"])
    ]
    v = build(lam, T2, targets, N, g=g)
    pairs = verify_fu(v)

    arts: dict = {"fu_vector": vector_csv(outdir, "fu_vector.csv", v.x)}
    density_tables = {}
    for i, (h, ds) in enumerate(pairs):
        arts[f"hitting_{i}"] = hitting_csv(outdir, f"hitting_{i}.csv", h)
        arts[f"density_{i}"] = density_csv(outdir, f"density_{i}.csv", ds)
        density_tables[f"target_{i}"] = _density_table(ds)

    h0 = pairs[0][0]
    certificates = []
    ap_results = {}
    for m in cfg.get("ap_orders", [3, 4, 5]):
        w = find_ap(h0, int(m), tau)
        if w is None or not w.verify(h0):
            raise ScenarioError(f"no verified progression of order {m}")
        ap_results[f"m_{m}"] = {"a": w.a, "k": w.k}
        certificates.append(_ap_cert(w, arts["hitting_0"]))

    center = cfg.get("witness_center", "e(1)")
    out = mr_witness_search(
        v.x, lam, T2, Ball(parse_vector(center), eps_wit), m_wit, tau, N
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
        "density_tables": density_tables,
        "certificates": certificates,
        "stats": {
            "hits_per_target": [len(h) for h, _ in pairs],
            "planned": v.report["planned_total"],
            "N": N,
        },
        "fu_plan": v.plan.to_config(),
        "artifacts": arts,
    }


E7_EXPECTED = {
    "z/2": "not_recurrent",
    "z+2": "not_recurrent",
    "z+0.8": "frequently_hypercyclic_and_multiply_recurrent",
    "const_i": "constant_recurrent",
    "const_2": "constant_not_recurrent",
}


def run_e7(cfg: dict, outdir: Path) -> dict:
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
        "density_tables": {},
        "certificates": certificates,
        "stats": {"symbols": len(symbols)},
        "artifacts": {},
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
    sid = _require(cfg, "scenario", str).upper()
    if sid not in SCENARIOS:
        raise ConfigError(f"unknown scenario {sid!r}")
    body = SCENARIOS[sid](cfg, outdir)
    report = {
        "format": "orbitlab-report-v1",
        "scenario": sid,
        "config": cfg,
        **body,
    }
    write_report(outdir, report)
    return report


# ---------------------------------------------------------------------------
# report verification
# ---------------------------------------------------------------------------

def _close(got: float, recorded: float) -> bool:
    """Relative 1e-9 agreement between a recomputed and a recorded value."""
    return abs(got - recorded) <= 1e-9 * (1.0 + abs(got))


def _cert_field(cert: dict, key: str, kind):
    """A certificate field of the given type (bool is no number here)."""
    if key not in cert:
        raise ConfigError(f"{cert.get('type')} certificate has no field {key!r}")
    v = cert[key]
    if isinstance(v, bool) or not isinstance(v, kind):
        raise ConfigError(
            f"{cert.get('type')} certificate field {key!r} has wrong type {type(v).__name__}"
        )
    return v


def _verify_certificate(cert: dict, report_dir: Path, hits_cache: dict) -> bool:
    kind = cert.get("type")
    if kind == "salas":
        return SalasCertificate.from_config(cert).verify()
    if kind == "mr_shift":
        return MRShiftCertificate.from_config(cert).verify()
    if kind == "range":
        return RangeCertificate.from_config(cert["certificate"]).verify(
            PolySymbol.from_config(cert["phi"])
        )
    if kind == "series":
        sv = fhc_series_check(
            WeightSeq.from_config(cert["weights"]), cert["n_max"],
            cap=cert.get("cap") or 12.0,
        )
        return sv.kind == cert["kind"] and _close(sv.partial_sum, cert["partial_sum"])
    if kind == "ap_witness":
        path = report_dir / _cert_field(cert, "hits_artifact", str)
        a, k, m, tau = (_cert_field(cert, key, int) for key in ("a", "k", "m", "tau"))
        if min(k, m, tau) < 1:
            return False
        if path not in hits_cache:
            hits_cache[path] = _load_hits(path)
        members = a + tau * k * np.arange(m + 1)
        return bool(np.all(np.isin(members, hits_cache[path])))
    if kind == "mr_witness":
        ell, m = _cert_field(cert, "ell", int), _cert_field(cert, "m", int)
        radius = _cert_field(cert, "radius", (int, float))
        op_cfg = _cert_field(cert, "operator", dict)
        u_artifact = _cert_field(cert, "u_artifact", str)
        center = _cert_field(cert, "center", str)
        if ell < 1 or m < 0:
            return False
        try:
            recorded = [float(d) for d in cert.get("distances", [])]
        except (TypeError, ValueError):
            return False
        if len(recorded) != m + 1:
            return False
        T = operator_from_config(op_cfg)
        u = read_vector_csv(report_dir / u_artifact, T.side)
        y = parse_vector(center, T.side)
        for j, rec in enumerate(recorded):
            d = dist(T.power_apply(j * ell, u), y)
            if not (d < radius and _close(d, rec)):
                return False
        return True
    return False


def _load_hits(path: Path) -> np.ndarray:
    (hits,) = _read_csv_columns(path, {"n": int})
    return hits


def verify_report(path: Path) -> list[tuple[str, bool]]:
    try:
        report = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read report {path}: {e}") from e
    hits_cache: dict[Path, np.ndarray] = {}
    results = []
    for i, cert in enumerate(report.get("certificates", [])):
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


def _weights_flag(name: str) -> WeightSeq:
    try:
        return WeightSeq.from_config({"family": name})
    except (KeyError, ValueError) as e:
        raise ConfigError(f"bad weight family {name!r}: {e}") from e


def _parse_symbol_arg(arg: str) -> PolySymbol:
    s = arg.strip()
    if s.startswith("["):
        return PolySymbol.from_config(json.loads(s))
    return PolySymbol(tuple(complex(t) for t in s.split(",")))


def _add_seq_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, help="sequence family tag")
    p.add_argument("--k", type=float, help="exponent for log_pow")
    p.add_argument("--a", type=str, help="parameter a (complex ok) for exp_pow/geom_inverse")
    p.add_argument("--c", type=str, help="constant value")
    p.add_argument("--w", type=str, help="base w for power_of_w")


def _seq_from_flags(ns) -> ScalingSeq:
    family = {"log": "log_pow"}.get(ns.family, ns.family)
    cfg: dict = {"family": family}
    if family == "log_pow":
        cfg["k"] = ns.k if ns.k is not None else 1.0
    for key in ("a", "c", "w"):
        v = getattr(ns, key)
        if v is not None:
            z = complex(v)
            cfg[key] = [z.real, z.imag] if (key != "a" or family != "exp_pow") else z.real
    return scaling_from_config(cfg)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="orbitlab", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("run", help="run a scenario from a config file")
    p.add_argument("--config", help="JSON config path")
    p.add_argument("--scenario", help="scenario id (built-in defaults)")
    p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("classify-seq", help="ratio-classify a scaling sequence")
    _add_seq_flags(p)
    p.add_argument("--tau", type=int, default=1)
    p.add_argument("--horizon", type=int, default=10**6)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--restrict-mod", type=int)
    p.add_argument("--restrict-res", type=int, default=0)

    p = sub.add_parser("check-salas", help="bilateral hypercyclicity products")
    p.add_argument("--weights", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--nmax", type=int, default=10**4)

    p = sub.add_parser("check-mr", help="multiple-recurrence products")
    p.add_argument("--weights", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--nmax", type=int, default=10**4)

    p = sub.add_parser("check-series", help="sum (w_1..w_n)^-2 behaviour")
    p.add_argument("--weights", required=True)
    p.add_argument("--nmax", type=int, default=10**6)
    p.add_argument("--cap", type=float, default=12.0)

    p = sub.add_parser("ap-find", help="arithmetic progressions in a hit set")
    p.add_argument("--hits", required=True, help="CSV with column n")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--tau", type=int, default=1)
    p.add_argument("--max-k", type=int)

    p = sub.add_parser("build-fu", help="build a frequently-universal vector")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="out")

    p = sub.add_parser("mr-witness", help="multiple-recurrence witness search")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="out")

    p = sub.add_parser("classify-symbol", help="adjoint-multiplier class of a symbol")
    p.add_argument("--coeffs", required=True,
                   help='low-degree-first: "0.8,1" or JSON [[re,im],...]')

    p = sub.add_parser("verify", help="re-verify certificates in a report")
    p.add_argument("--report", required=True)

    ns = ap.parse_args(argv)
    try:
        return _dispatch(ns)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_SCHEMA
    except ScenarioError as e:
        print(f"scenario assertion failed: {e}", file=sys.stderr)
        return EXIT_ASSERTION
    except ResourceCapError as e:
        print(f"resource cap: {e}", file=sys.stderr)
        return EXIT_RESOURCE


def _dispatch(ns) -> int:
    if ns.cmd == "run":
        overrides = {"scenario": ns.scenario} if ns.scenario else {}
        cfg = _load_config(ns.config, overrides)
        report = run_scenario(cfg, Path(ns.out))
        print(f"scenario {report['scenario']}: ok -> {ns.out}/report.json")
        return EXIT_OK

    if ns.cmd == "classify-seq":
        seq = _seq_from_flags(ns)
        restrict = (ns.restrict_mod, ns.restrict_res) if ns.restrict_mod else None
        v = ratio_classify(seq, ns.tau, N=ns.horizon, tol=ns.tol, restrict=restrict)
        print(f"family={ns.family} tau={ns.tau} verdict={v.kind}"
              + (f" limit={v.limit}" if v.is_bad else "")
              + (f" note={v.note}" if v.note else ""))
        print("last ratios:", " ".join(f"{r:.6g}" for r in v.evidence))
        return EXIT_OK

    if ns.cmd == "check-salas":
        out = salas_check(_weights_flag(ns.weights), ns.eps, ns.q, ns.nmax)
        if out:
            c = out.certificate
            print(f"witness n={c.n} (verify: {c.verify()})")
        else:
            print(f"none found up to N_max={ns.nmax}; diagnostics {out.diagnostics}")
        return EXIT_OK

    if ns.cmd == "check-mr":
        out = mr_shift_check(_weights_flag(ns.weights), ns.m, ns.q, ns.eps, ns.nmax)
        if out:
            c = out.certificate
            print(f"witness n={c.n} (verify: {c.verify()})")
        else:
            print(f"none found up to N_max={ns.nmax}; diagnostics {out.diagnostics}")
        return EXIT_OK

    if ns.cmd == "check-series":
        sv = fhc_series_check(_weights_flag(ns.weights), ns.nmax, cap=ns.cap)
        print(f"{sv.kind} partial_sum={sv.partial_sum:.9g}"
              + (f" tail_bound={sv.tail_bound:.3e}" if sv.tail_bound else "")
              + (f" crossed_cap_at={sv.crossed_cap_at}" if sv.crossed_cap_at else ""))
        return EXIT_OK

    if ns.cmd == "ap-find":
        if ns.m < 1 or ns.tau < 1:
            raise ConfigError(f"ap-find needs --m >= 1 and --tau >= 1, got {ns.m} and {ns.tau}")
        hits = _load_hits(Path(ns.hits))
        try:
            h = HittingSet(hits, ns.nmax)
        except ValueError as e:
            raise ConfigError(f"hit set {ns.hits}: {e}") from e
        w = find_ap(h, ns.m, ns.tau, ns.max_k)
        if w is None:
            print("none")
        else:
            print(f"a={w.a} k={w.k} members={list(w.members())}")
        return EXIT_OK

    if ns.cmd == "build-fu":
        cfg = _load_config(ns.config, {})
        lam = scaling_from_config(_require(cfg, "scaling", dict))
        T = operator_from_config(_require(cfg, "operator", dict))
        targets = [
            (parse_vector(t["vector"]), float(t["eps"]))
            for t in _require(cfg, "targets", list)
        ]
        N = int(_require(cfg, "N"))
        _check_caps(N)
        v = build(lam, T, targets, N, g=cfg.get("g"), n_min=cfg.get("n_min"))
        outdir = Path(ns.out)
        arts = {"fu_vector": vector_csv(outdir, "fu_vector.csv", v.x)}
        pairs = verify_fu(v)
        tables = {}
        for i, (h, ds) in enumerate(pairs):
            arts[f"hitting_{i}"] = hitting_csv(outdir, f"hitting_{i}.csv", h)
            tables[f"target_{i}"] = _density_table(ds)
        report = {
            "format": "orbitlab-report-v1",
            "scenario": "build-fu",
            "config": cfg,
            "verdicts": {"fu_build": "ok"},
            "density_tables": tables,
            "certificates": [],
            "stats": v.report,
            "fu_plan": v.plan.to_config(),
            "artifacts": arts,
        }
        write_report(outdir, report)
        print(f"built: {v.x.nnz} coefficients, report -> {ns.out}/report.json")
        return EXIT_OK

    if ns.cmd == "mr-witness":
        cfg = _load_config(ns.config, {})
        lam = scaling_from_config(_require(cfg, "scaling", dict))
        T = operator_from_config(_require(cfg, "operator", dict))
        x = read_vector_csv(Path(_require(cfg, "vector_csv", str)), T.side)
        center = _require(cfg, "center", str)
        ball = Ball(parse_vector(center, T.side), float(_require(cfg, "eps")))
        N = int(_require(cfg, "N"))
        _check_caps(N)
        try:
            m, tau = int(cfg.get("m", 3)), int(cfg.get("tau", 1))
        except (TypeError, ValueError) as e:
            raise ConfigError(f"bad m or tau: {e}") from e
        if m < 0 or tau < 1:
            raise ConfigError(f"mr-witness needs m >= 0 and tau >= 1, got {m} and {tau}")
        out = mr_witness_search(x, lam, T, ball, m, tau, N, K=cfg.get("K"))
        if not out:
            print(f"none: {out.diagnostics}")
            return EXIT_ASSERTION
        w = out.witness
        outdir = Path(ns.out)
        art = vector_csv(outdir, "witness_u.csv", w.u)
        report = {
            "format": "orbitlab-report-v1",
            "scenario": "mr-witness",
            "config": cfg,
            "verdicts": {"mr_witness": {"ell": w.ell, "a": w.a, "k": w.k}},
            "density_tables": {},
            "certificates": [_mr_cert(w, art, _op_cfg(T), center)],
            "stats": out.diagnostics,
            "artifacts": {"witness_u": art},
        }
        write_report(outdir, report)
        print(f"witness ell={w.ell} a={w.a}; report -> {ns.out}/report.json")
        return EXIT_OK

    if ns.cmd == "classify-symbol":
        phi = _parse_symbol_arg(ns.coeffs)
        sv = classify_adjoint(phi)
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
