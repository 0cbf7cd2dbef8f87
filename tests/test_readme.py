"""README's config and certificate tables are rendered from the tables in
``expcli``; this test renders them again and fails when README differs, so
the docs cannot drift from the code. To update README, paste ``render()``'s
(or ``render_certificates()``'s) output between its two markers. The lines
of README's CLI block are run as well."""

import shlex
import shutil
from pathlib import Path

from orbitlab import expcli
from orbitlab.expcli import FLAG_COMMANDS, PARAMS, REQUIRED, main

README = Path(__file__).parents[1] / "README.md"
BEGIN = "<!-- config tables: rendered from src/orbitlab/expcli.py, checked by tests/test_readme.py -->"
END = "<!-- end of config tables -->"
CERT_BEGIN = ("<!-- certificate tables: rendered from src/orbitlab/expcli.py, "
              "checked by tests/test_readme.py -->")
CERT_END = "<!-- end of certificate tables -->"


def _row(*cells: str) -> str:
    return "| " + " | ".join(c.replace("|", "\\|") for c in cells) + " |"


def _cells(p: expcli.Param) -> tuple[str, str, str]:
    kind, default, limits = expcli.param_cells(p)
    if p.default is not REQUIRED and p.default is not None:
        default = f"`{default}`"
    return kind, default, limits


def _table(title: str, rows: dict, flags: bool) -> list[str]:
    if not rows:
        return [f"**{title}**", "", "No keys.", ""]
    out = [f"**{title}**", "", _row("flag" if flags else "key", "type", "default", "range"),
           "|---|---|---|---|"]
    out += [_row(f"`{expcli.flag_name(key) if flags else key}`", *_cells(p))
            for key, p in rows.items()]
    out.append("")
    for key, p in rows.items():
        if not (flags and p.kind.families):
            continue
        params = ", ".join(f"`{expcli.flag_name(k)}`" for k in expcli.family_flags(p.kind))
        keys = (f"{params} set its keys" if params
                else "a family with a required key cannot be given this way")
        out += [f"`{expcli.flag_name(key)}` takes a {p.kind.name} family tag; {keys}.", ""]
    return out


def _families(title: str, tag: str, kind: expcli.Kind) -> list[str]:
    out = [f"**{title}** (the `\"{tag}\"` key names the family)", "",
           _row("family", "key", "type", "default", "range"), "|---|---|---|---|---|"]
    for name, fam in kind.families.items():
        out += [_row(f"`{name}`", f"`{key}`", *_cells(p)) for key, p in fam.rows.items()]
        if not fam.rows:
            out.append(_row(f"`{name}`", "", "", "", ""))
    return out + [""]


def render() -> str:
    lines = []
    for cmd, rows in PARAMS.items():
        flags = cmd in FLAG_COMMANDS
        lines += _table(f"{cmd} (flags)" if flags else cmd, rows, flags)
    lines += _table("operator object", expcli.OPERATOR, False)
    lines += _table("build-fu target", expcli.TARGET, False)
    lines += _families("scaling families", "family", expcli.SCALING)
    lines += _families("weights families", "family", expcli.WEIGHTS)
    lines += _families("angle kinds", "kind", expcli.ANGLE)
    return "\n".join(lines)


def render_certificates() -> str:
    lines = []
    for kind, cert in expcli.CERTIFICATES.items():
        lines += _table(f"{kind} certificate", cert.rows, False)
    lines += _table("range test (a range certificate's `certificate` object)",
                    expcli.RANGE_TEST, False)
    return "\n".join(lines)


def _block(begin: str, end: str) -> str:
    text = README.read_text()
    assert begin in text and end in text
    return text.split(begin, 1)[1].split(end, 1)[0].strip("\n")


def test_readme_config_tables_match_code():
    assert _block(BEGIN, END) == render().strip("\n")


def test_readme_certificate_tables_match_code():
    assert _block(CERT_BEGIN, CERT_END) == render_certificates().strip("\n")


# CLI lines whose inputs (build.json, witness.json) are the user's own
NOT_SHIPPED = ("build-fu", "mr-witness")


def _cli_lines() -> list[list[str]]:
    """The argv of each line of README's CLI block, in README's order."""
    block = README.read_text().split("## CLI", 1)[1].split("```", 2)[1]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    return [words[1:] for words in lines if words and words[0] == "orbitlab"]


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    """Every README CLI line with shipped inputs exits 0 and prints no numpy
    reprs. The lines run in order in one directory, so `verify` and `ap-find`
    read what `run` wrote."""
    shutil.copytree(README.parent / "configs", tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    ran = []
    for argv in _cli_lines():
        if argv[0] in NOT_SHIPPED:
            continue
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, (argv, code)
        assert "np." not in out, (argv, out)
        ran.append(argv[0])
    assert {"run", "ap-find", "verify"} <= set(ran)
