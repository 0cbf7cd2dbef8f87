"""Every function in the package is reached by some command, or ``KEEP``
names it with its reason.

The test imports the package afresh under ``sys.setprofile``, so the calls
that build its tables count too, and runs a matrix of commands through
``expcli.main`` at small horizons:

* the seven shipped configs, each followed by ``verify``;
* ``build-fu`` on flat and ``sqrt_ratio`` weights, an ``mr-witness`` on
  the flat build and one each on a bilateral shift with general and with
  flat weights, each followed by ``verify``;
* one ``build-fu`` per row of the scaling, weights and angle family tables,
  generated from those tables;
* README's flag commands, verbatim but for ``ap-find``'s hit file;
* ``ap-find`` on a sparse hit set;
* one failing run per documented exit code (2, 3 and 4).

It then collects every ``def`` in the package's sources, nested ones
included, and fails on each that no command called and that ``KEEP`` does
not name. Each ``KEEP`` entry is called once, so a helper that only a kept
function uses needs no entry of its own. An entry that the matrix reaches,
or that names no function, is stale and fails the test too.
"""

import ast
import importlib
import json
import math
import shlex
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ROOT = Path(__file__).parents[1]
README = ROOT / "README.md"

# horizons small enough for a quick sweep at which every shipped scenario's
# own assertions still hold
SMALL = {
    "e1": {"N": 2_000},
    "e2": {"N": 2_000, "recurrence_N": 100, "ratio_N": 1_000},
    "e3": {"N": 20_000, "ratio_N": 10_000},
    "e4": {"N": 1_000},
    "e5": {"N": 2_000, "cap": 5.0},
    "e6": {"N": 10_000},
    "e7": {},
}

FLAT = {"side": "unilateral", "weights": {"family": "constant_w", "c": 1.0},
        "premultiplier": [2.0, 0.0]}
SQRT_RATIO = FLAT | {"weights": {"family": "sqrt_ratio"}}
ONE = {"family": "constant", "c": [1.0, 0.0]}
FU_N = 2_000
# x = sum of 2^-k e(k) over k = 2, 5, 8 under weights 1/2 below index 1 and
# 2 from it: T^n x is within 0.18 of e(0) at n = 2, 5 and 8, so the bilateral
# per-n scan finds the progression 2, 5 of gap 3
BILATERAL_X = "index,log_mag,phase\n" + "".join(
    f"{k},{-k * math.log(2.0)!r},0.0\n" for k in (2, 5, 8))
BILATERAL_MW = {"scaling": ONE, "vector_csv": "bilateral_x.csv", "center": "e(0)", "eps": 0.5,
                "m": 1, "N": 50, "operator": {"side": "bilateral",
                                              "weights": {"family": "inverse_step_bilateral"}}}
# under weights 2, T^2 x is within 0.13 of e(0): the flat scan on a bilateral
# shift, which reads x's tails on both sides of the window, finds one hit
BILATERAL_FLAT_MW = BILATERAL_MW | {"m": 0, "operator": {
    "side": "bilateral", "weights": {"family": "constant_w", "c": 2.0}}}


def _fu(scaling=ONE, operator=FLAT, eps=1e-3, **extra) -> dict:
    return {"scaling": scaling, "operator": operator,
            "targets": [{"vector": "e(1)", "eps": eps}], "N": FU_N, **extra}


# a value for each required key of a family row, by its kind; a table
# family's list is stretched to cover the horizon
SAMPLE = {
    "int": 1,
    "number": 0.5,
    "complex": [1.0, 0.0],
    "list of number": [1.0],
    "list of complex": [[1.0, 0.0]],
    "scaling": ONE,
    "angle": {"kind": "constant"},
}


def _family_config(expcli, kind, name: str) -> dict:
    fam = kind.families[name]
    tag = "kind" if kind is expcli.ANGLE else "family"
    cfg = {tag: name}
    for key, row in fam.rows.items():
        if row.default is not expcli.REQUIRED:
            continue
        value = SAMPLE[row.kind.name]
        cfg[key] = value * (FU_N + 1) if name.startswith("table") else value
    return cfg


def _family_builds(expcli) -> list[dict]:
    """One build-fu config per row of the scaling, weights and angle tables."""
    out = [_fu(_family_config(expcli, expcli.SCALING, name)) for name in expcli.SCALING_FAMILIES]
    # 4B: weights as small as 1/2 must still leave the shift expanding
    out += [_fu(operator=FLAT | {"premultiplier": [4.0, 0.0],
                                 "weights": _family_config(expcli, expcli.WEIGHTS, name)})
            for name in expcli.WEIGHTS.families]
    out += [_fu({"family": "rotated", "base": ONE,
                 "theta": _family_config(expcli, expcli.ANGLE, name)})
            for name in expcli.ANGLE.families]
    return out


def _readme_flag_lines(expcli, hits: str) -> list[list[str]]:
    """README's CLI lines of the flag commands, one or more per command, with
    ap-find reading ``hits``."""
    block = README.read_text().split("## CLI", 1)[1].split("```", 2)[1]
    out = []
    for line in block.splitlines():
        argv = shlex.split(line, comments=True)[1:]
        if argv and argv[0] in expcli.FLAG_COMMANDS:
            if argv[0] == "ap-find":
                argv[argv.index("--hits") + 1] = hits
            out.append(argv)
    assert {argv[0] for argv in out} == set(expcli.FLAG_COMMANDS)
    return out


def _write(path: str, obj) -> str:
    Path(path).write_text(json.dumps(obj))
    return path


def run_matrix(expcli) -> None:
    """Every command of the matrix, in the current directory; each must end
    with the exit code it is listed with."""
    ok, schema, failed, cap = (expcli.EXIT_OK, expcli.EXIT_SCHEMA,
                               expcli.EXIT_ASSERTION, expcli.EXIT_RESOURCE)
    runs = []
    for stem, small in SMALL.items():
        cfg = json.loads((ROOT / "configs" / f"{stem}.json").read_text()) | small
        runs.append((["run", "--config", _write(f"{stem}.json", cfg), "--out", stem], ok))
        runs.append((["verify", "--report", f"{stem}/report.json"], ok))
    mw = {"scaling": ONE, "operator": FLAT, "vector_csv": "fu/fu_vector.csv",
          "center": "e(1)", "eps": 0.01, "m": 3, "N": FU_N}
    Path("bilateral_x.csv").write_text(BILATERAL_X)
    for cmd, out, cfg in (("build-fu", "fu", _fu()),
                          ("build-fu", "fu_sqrt", _fu(operator=SQRT_RATIO)),
                          ("mr-witness", "mw", mw),
                          ("mr-witness", "mw_bilateral", BILATERAL_MW),
                          ("mr-witness", "mw_bilateral_flat", BILATERAL_FLAT_MW)):
        runs.append(([cmd, "--config", _write(f"{out}.json", cfg), "--out", out], ok))
        runs.append((["verify", "--report", f"{out}/report.json"], ok))
    for i, cfg in enumerate(_family_builds(expcli)):
        runs.append((["build-fu", "--config", _write(f"family_{i}.json", cfg),
                      "--out", f"family_{i}"], ok))
    runs += [(argv, ok) for argv in _readme_flag_lines(expcli, "e6/hitting_0.csv")]
    # 6 members, so 15 pairs: far fewer than the default K, the sparse side
    Path("sparse.csv").write_text("n\n3\n1000\n2000\n3000\n4000\n50000\n")
    runs.append((["ap-find", "--hits", "sparse.csv", "--nmax", "100000", "--m", "3"], ok))
    runs += [
        (["run", "--scenario", "E9"], schema),
        # a gap of 3 lets the next block spoil the first planned time
        (["build-fu", "--config", _write("gap.json", _fu(eps=1e-6, g=3))], failed),
        (["run", "--config", _write("cap.json", {"scenario": "E2", "N": 10**9})], cap),
    ]
    for argv, want in runs:
        assert expcli.main(argv) == want, argv


def package_defs(package: Path) -> set[str]:
    """``module.qualname`` of every def in the package, nested ones included,
    spelled as their code objects' ``co_qualname``."""
    names = set()

    def walk(node, module: str, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(f"{module}.{prefix}{child.name}")
                walk(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, f"{prefix}{child.name}.")
            else:
                walk(child, module, prefix)

    for path in sorted(package.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, "")
    return names


def _mod(name: str):
    return sys.modules[f"orbitlab.{name}"]


def _mr_shift_certificate():
    w = _mod("shiftops").WeightSeq.inverse_step_bilateral()
    return _mod("criteria").mr_shift_check(w, 2, 0, 0.5, 100).certificate


def _two_b():
    """2B, e_1 and the scaling module, from the package under test."""
    lspace, shiftops = _mod("lspace"), _mod("shiftops")
    T = shiftops.ShiftOp(lspace.Side.UNILATERAL, shiftops.WeightSeq.constant(1.0), 2.0)
    return T, lspace.CoefVec.basis(lspace.Side.UNILATERAL, 1), _mod("seqcore").ScalingSeq


def _superratio():
    T, e1, seq = _two_b()
    assert _mod("criteria").superratio_decay_check(seq.inverse(seq.factorial()), T, e1, 200).ok


def _verify_products():
    expcli = _mod("expcli")
    cert = expcli.certificate("mr_shift", _mr_shift_certificate())
    del cert["type"]
    assert expcli._verify_products(expcli.resolve(cert, expcli.CERTIFICATES["mr_shift"].rows, ""))


# function -> (why it stays though no command reaches it, a call of it)
KEEP = {
    "criteria.superratio_decay_check": (
        "the optimality half of the main theorem, for |lam_n|/|lam_{n+1}| -> +inf; "
        "no scenario covers +inf",
        _superratio),
    "criteria.mr_invertible_check": (
        "the invertible bilateral-shift criterion; E4 and E5 use only the product "
        "search and the series test",
        lambda: _mod("criteria").mr_invertible_check(
            _mod("shiftops").WeightSeq.inverse_step_bilateral(), 2, 100, 10.0)),
    "expcli._verify_products": (
        "verify reads salas and mr_shift certificates from reports that users bring",
        _verify_products),
}


@contextmanager
def fresh_package(hook):
    """The package imported anew under the profile hook; the modules other
    tests imported are put back afterwards."""
    def ours(name: str) -> bool:
        return name == "orbitlab" or name.startswith("orbitlab.")

    saved = {name: mod for name, mod in sys.modules.items() if ours(name)}
    for name in saved:
        del sys.modules[name]
    sys.setprofile(hook)
    try:
        yield importlib.import_module("orbitlab.expcli")
    finally:
        sys.setprofile(None)
        for name in [name for name in sys.modules if ours(name)]:
            del sys.modules[name]
        sys.modules.update(saved)


def test_every_function_is_reached_or_kept(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    with fresh_package(hook) as expcli:
        package = Path(expcli.__file__).resolve().parent
        run_matrix(expcli)
        by_matrix = set(codes)
        for _, call in KEEP.values():
            call()

    def names(found) -> set[str]:
        return {f"{Path(c.co_filename).stem}.{c.co_qualname}" for c in found
                if Path(c.co_filename).resolve().parent == package}

    defs = package_defs(package)
    assert all(reason for reason, _ in KEEP.values())
    stale = sorted(name for name in KEEP if name in names(by_matrix) or name not in defs)
    assert not stale, f"KEEP entries that the matrix reaches or that name no function: {stale}"
    unreached = sorted(defs - names(codes))
    assert not unreached, (
        f"reached by no command and no KEEP call: {unreached}; call them, delete them or KEEP them")
