"""End-to-end CLI tests: documents, exit codes, determinism, round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import effectkit
from effectkit import autos, cli
from effectkit.autos import apply, fit_p, random_automorphism
from effectkit.cli import (
    doc_to_matrix,
    doc_to_vector,
    dump_json,
    main,
    map_to_doc,
    matrix_to_doc,
)
from effectkit.effects import is_scalar, make_effect, scalar_effect
from effectkit.fracfun import fit_frac, interior_grid


@pytest.fixture()
def docs(tmp_path):
    """Effect, ray, and map documents on disk."""
    eff = tmp_path / "eff.json"
    ray = tmp_path / "ray.json"
    mp = tmp_path / "map.json"
    eff.write_text(json.dumps(matrix_to_doc(np.diag([0.5, 1.0]).astype(complex))))
    s = 1.0 / np.sqrt(2.0)
    ray.write_text(json.dumps({"n": 2, "entries": [[s, 0.0], [s, 0.0]]}))
    phi = random_automorphism(2, 0.5, False, 9)
    mp.write_text(json.dumps(map_to_doc(phi)))
    return {"eff": str(eff), "ray": str(ray), "map": str(mp), "phi": phi, "dir": tmp_path}


def test_strength_command(docs, capsys):
    code = main(["strength", "--effect", docs["eff"], "--ray", docs["ray"]])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["value"] == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert out["in_range"] is True


def test_strength_oracle_agrees(docs, capsys):
    code = main(["strength", "--effect", docs["eff"], "--ray", docs["ray"], "--oracle"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["gap"] <= 1e-6


def test_apply_matches_library(docs, capsys):
    code = main(["apply", "--map", docs["map"], "--effect", docs["eff"]])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    image = doc_to_matrix(out)
    expected = apply(docs["phi"], make_effect(np.diag([0.5, 1.0]))).matrix
    assert np.allclose(image, expected, atol=1e-15)


def test_fit_recovers_parameter(docs, capsys):
    code = main(["fit", "--map", docs["map"], "--grid", "25"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["p"] == pytest.approx(0.5, abs=1e-9)
    assert out["c_deviation"] <= 1e-9


def test_verify_passes_and_is_deterministic(docs, capsys):
    argv = ["verify", "--suite", "all", "--dims", "2", "--p", "0,0.5",
            "--trials", "8", "--seed", "4"]
    code1 = main(argv)
    out1 = capsys.readouterr().out
    code2 = main(argv)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["overall"] == "pass"
    assert report["seed"] == 4
    assert all(entry["satisfied"] for entry in report["suites"])


def test_verify_json_file_matches_stdout(docs, capsys):
    target = docs["dir"] / "report.json"
    code = main(["verify", "--suite", "order", "--dims", "2", "--p", "0",
                 "--trials", "5", "--seed", "2", "--json", str(target)])
    out = capsys.readouterr().out
    assert code == 0
    assert target.read_text() == out


def test_verify_round_trip_identity(docs, capsys):
    main(["verify", "--suite", "transition", "--dims", "2,3", "--p", "0.5",
          "--trials", "5", "--seed", "3"])
    out = capsys.readouterr().out
    assert dump_json(json.loads(out)) + "\n" == out


def test_verify_annotates_rigidity(docs, capsys):
    main(["verify", "--suite", "ortho", "--dims", "2", "--p", "0.5",
          "--trials", "5", "--seed", "6"])
    report = json.loads(capsys.readouterr().out)
    entry = report["suites"][0]
    assert entry["expected"] == "counterexample"
    assert entry["failures"] > 0
    assert entry["satisfied"] is True
    assert report["overall"] == "pass"


def test_verify_expect_preserve_fails(docs, capsys):
    code = main(["verify", "--suite", "ortho", "--dims", "2", "--p", "0.5",
                 "--trials", "5", "--seed", "6", "--expect", "preserve"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["overall"] == "fail"


def test_env_seed_default(docs, capsys, monkeypatch):
    monkeypatch.setenv("EFFECTKIT_SEED", "4")
    main(["verify", "--suite", "order", "--dims", "2", "--p", "0", "--trials", "5"])
    out_env = capsys.readouterr().out
    monkeypatch.delenv("EFFECTKIT_SEED")
    main(["verify", "--suite", "order", "--dims", "2", "--p", "0", "--trials", "5",
          "--seed", "4"])
    out_flag = capsys.readouterr().out
    assert out_env == out_flag


def test_exit_two_on_missing_file(docs, capsys):
    code = main(["strength", "--effect", "no-such.json", "--ray", docs["ray"]])
    assert code == 2


def test_exit_two_on_malformed_documents(docs, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["strength", "--effect", str(bad), "--ray", docs["ray"]]) == 2

    bad.write_text(json.dumps({"n": 3, "rows": [[[1.0, 0.0]]]}))
    assert main(["strength", "--effect", str(bad), "--ray", docs["ray"]]) == 2

    # non-hermitian matrix parses but fails validation
    bad.write_text(json.dumps({"n": 2, "rows": [
        [[0.5, 0.0], [0.4, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}))
    assert main(["strength", "--effect", str(bad), "--ray", docs["ray"]]) == 2

    # spectrum outside [0, 1]
    bad.write_text(json.dumps(matrix_to_doc(np.diag([1.5, 0.5]).astype(complex))))
    assert main(["strength", "--effect", str(bad), "--ray", docs["ray"]]) == 2


def test_exit_two_on_bad_map(docs, tmp_path, capsys):
    doc = json.loads((docs["dir"] / "map.json").read_text())
    doc["U"]["rows"][0][0] = [5.0, 0.0]
    bad = tmp_path / "badmap.json"
    bad.write_text(json.dumps(doc))
    assert main(["fit", "--map", str(bad), "--grid", "10"]) == 2

    doc2 = json.loads((docs["dir"] / "map.json").read_text())
    del doc2["p"]
    bad.write_text(json.dumps(doc2))
    assert main(["apply", "--map", str(bad), "--effect", docs["eff"]]) == 2


def test_exit_two_on_bad_flags(docs, capsys):
    assert main(["verify", "--dims", "zero", "--p", "0"]) == 2
    assert main(["verify", "--suite", "nonsense"]) == 2
    assert main(["nonsense"]) == 2
    assert main(["verify", "--p", "1.5"]) == 2
    capsys.readouterr()
    for grid in ("0", "1", "2"):
        assert main(["fit", "--map", docs["map"], "--grid", grid]) == 2
        assert capsys.readouterr().err.startswith("error: --grid")


def test_exit_two_on_bad_env_seed(docs, capsys, monkeypatch):
    monkeypatch.setenv("EFFECTKIT_SEED", "not-a-number")
    assert main(["verify", "--suite", "order", "--dims", "2", "--p", "0",
                 "--trials", "3"]) == 2


def _child_env():
    """Environment for a ``python -m effectkit`` child: the imported package's
    absolute source root goes on its path, so it needs no install and does
    not depend on pytest's cwd."""
    src_root = str(Path(effectkit.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_root, env.get("PYTHONPATH")]))
    return env


def test_console_script_end_to_end(docs, tmp_path):
    # A real child process through the console script's callable
    # (effectkit.cli:run).
    def effectkit_cmd(*args):
        return subprocess.run(
            [sys.executable, "-m", "effectkit", *args],
            capture_output=True, text=True, env=_child_env(), cwd=tmp_path,
        )

    result = effectkit_cmd("strength", "--effect", docs["eff"], "--ray", docs["ray"])
    assert result.returncode == 0
    assert json.loads(result.stdout)["in_range"] is True

    bad = tmp_path / "malformed.json"
    bad.write_text("{")
    result = effectkit_cmd("strength", "--effect", str(bad), "--ray", docs["ray"])
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error:")


def test_dump_json_formats():
    text = dump_json({"a": 1.0, "b": True, "c": None, "d": [0.1], "e": "x"})
    parsed = json.loads(text)
    assert parsed["d"][0] == 0.1
    assert "0.10000000000000001" in text
    with pytest.raises(ValueError):
        dump_json({"bad": float("nan")})


def test_parser_reused_across_requests(docs, capsys, monkeypatch):
    built = []
    real_build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real_build())
    cli._parser.cache_clear()
    argv = ["strength", "--effect", docs["eff"], "--ray", docs["ray"], "--oracle"]

    assert main(["fit", "--map", docs["map"], "--grid", "twenty"]) == 2
    usage = capsys.readouterr()
    assert usage.out == "" and "invalid int value" in usage.err
    results = []
    for _ in range(2):
        code = main(argv)
        results.append((code, capsys.readouterr().out))
    assert built == [1]

    child = subprocess.run([sys.executable, "-m", "effectkit", *argv],
                           capture_output=True, text=True, env=_child_env(), cwd=docs["dir"])
    assert results == [(child.returncode, child.stdout)] * 2
    assert child.returncode == 0


def _per_entry(items):
    """Reference: one complex(float(re), float(im)) per pair, as the loop parser does."""
    if isinstance(items[0][0], list):
        return np.stack([_per_entry(row) for row in items])
    out = np.zeros(len(items), dtype=np.complex128)
    for i, (re, im) in enumerate(items):
        out[i] = complex(float(re), float(im))
    return out


@pytest.mark.parametrize(
    "rows",
    [
        [[[1, 0]]],
        [[[-0.0, -0.0]]],
        [[[0.5, 0], [-0.0, 0.25]], [[-0.0, -0.25], [1, -0.0]]],
        [[[2**53 + 1, -1], [3, 7]], [[-(2**62) - 1, 5], [0, 0]]],
        [[[2**53 + 1, -1], [3, 0.0]], [[2**63 + 1025, 0.5], [0, -0.0]]],
        np.random.default_rng(5).normal(size=(4, 4, 2)).tolist(),
    ],
    ids=["n1-int", "n1-negzero", "n2-mixed", "int64-rounding", "float-rounding", "n4-random"],
)
def test_bulk_documents_match_per_entry_path(rows, monkeypatch):
    def no_per_entry(entry, where):
        raise AssertionError("per-entry parser used for a plainly numeric document")

    monkeypatch.setattr(cli, "_entry_to_complex", no_per_entry)
    n = len(rows)
    for got, ref in (
        (doc_to_matrix({"n": n, "rows": rows}), _per_entry(rows)),
        (doc_to_vector({"n": n, "entries": rows[0]}), _per_entry(rows[0])),
    ):
        assert got.dtype == np.complex128 and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
        assert np.array_equal(np.signbit(got.real), np.signbit(ref.real))
        assert np.array_equal(np.signbit(got.imag), np.signbit(ref.imag))


_MALFORMED_ENTRIES = {
    "string-number": '"1.5"',
    "null": "null",
    "three-elements": "[0.5, 0.0, 0.0]",
    "extra-nesting": "[[0.5, 0.0]]",
    "nan-literal": "[NaN, 0.0]",
    "infinity-literal": "[0.5, -Infinity]",
    "huge-integer": "[" + "1" + "0" * 400 + ", 0]",
}


@pytest.mark.parametrize("kind", sorted(_MALFORMED_ENTRIES))
def test_exit_two_on_malformed_entries(docs, tmp_path, capsys, kind):
    entry = _MALFORMED_ENTRIES[kind]
    eff = tmp_path / "eff.json"
    eff.write_text('{"n": 2, "rows": [[%s, [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}' % entry)
    assert main(["strength", "--effect", str(eff), "--ray", docs["ray"]]) == 2
    ray = tmp_path / "ray.json"
    ray.write_text('{"n": 2, "entries": [[1.0, 0.0], %s]}' % entry)
    assert main(["strength", "--effect", docs["eff"], "--ray", str(ray)]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 2 and "Traceback" not in err


def test_exit_two_on_ragged_rows_and_huge_map_parameter(docs, tmp_path, capsys):
    eff = tmp_path / "eff.json"
    eff.write_text('{"n": 2, "rows": [[[0.5, 0.0], [0.0, 0.0]], [[0.5, 0.0]]]}')
    assert main(["strength", "--effect", str(eff), "--ray", docs["ray"]]) == 2
    doc = json.loads((docs["dir"] / "map.json").read_text())
    bad = tmp_path / "map.json"
    bad.write_text(json.dumps(doc).replace('"p": 0.5', '"p": -1' + "0" * 400))
    assert main(["apply", "--map", str(bad), "--effect", docs["eff"]]) == 2
    assert capsys.readouterr().err.count("error:") == 2


_IDENTITY_2 = '{"n": 2, "rows": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}'
# Read with True as 1 and False as 0, the first three would build arrays
# of a boolean shape and the last two would pass as numbers.
_BOOLEAN_DOCUMENTS = {
    "matrix-n": ("effect", '{"n": true, "rows": [[[0.5, 0.0]]]}', "'n'"),
    "vector-n": ("ray", '{"n": true, "entries": [[1.0, 0.0]]}', "'n'"),
    "map-U-n": ("map", '{"U": {"n": true, "rows": [[[1.0, 0.0]]]}, "conjugate": false, "p": 0.5}', "'n'"),
    "vector-entries": ("ray", '{"n": 2, "entries": [[true, false], [false, false]]}', "finite numbers"),
    "map-p": ("map", '{"U": %s, "conjugate": false, "p": false}' % _IDENTITY_2, "'p'"),
}


@pytest.mark.parametrize("kind", sorted(_BOOLEAN_DOCUMENTS))
def test_exit_two_on_a_boolean_for_a_number(docs, tmp_path, capsys, kind):
    role, text, named = _BOOLEAN_DOCUMENTS[kind]
    doc = tmp_path / "doc.json"
    doc.write_text(text)
    files = {"effect": docs["eff"], "ray": docs["ray"], "map": docs["map"], role: str(doc)}
    if role == "map":
        argv = ["apply", "--map", files["map"], "--effect", files["effect"]]
    else:
        argv = ["strength", "--effect", files["effect"], "--ray", files["ray"]]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and named in err and "Traceback" not in err


def test_fit_fits_once_with_the_two_pass_output(docs, capsys, monkeypatch):
    # Reference: the output fit_p followed by a second sampling and fit gave.
    phi = docs["phi"]
    param = fit_p(phi, 25)
    samples = [(float(x), is_scalar(phi(scalar_effect(2, float(x))))[1])
               for x in interior_grid(25)]
    fit = fit_frac(samples)
    expected = dump_json({"p": param.p, "a": fit.a, "c": fit.c,
                          "c_deviation": abs(fit.c - 1.0), "residual": fit.residual}) + "\n"

    calls = []
    for module in (autos, cli):  # cli need not import fit_frac; a fit there would count too
        monkeypatch.setattr(module, "fit_frac", lambda s: calls.append(1) or fit_frac(s), raising=False)
    assert main(["fit", "--map", docs["map"], "--grid", "25"]) == 0
    assert capsys.readouterr().out == expected
    assert calls == [1]


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_rejects_trials_below_one(capsys, trials):
    code = main(["verify", "--suite", "order", "--dims", "2", "--p", "0", "--trials", trials])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: --trials")


def test_negative_p_as_separate_token(capsys):
    base = ["verify", "--suite", "order", "--dims", "2", "--trials", "3", "--seed", "5"]
    outputs = []
    for p_args in (["--p", "-1e6,0"], ["--p=-1e6,0"]):
        code = main(base + p_args)
        outputs.append((code, capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0][1])["suites"][0]["suite"].startswith("order[n=2,p=-1e+06")


@pytest.mark.parametrize("suite", ["coexist", "zero-product"])
def test_verify_exits_two_for_a_suite_that_needs_two_dimensions(capsys, suite):
    code = main(["verify", "--suite", suite, "--dims", "1", "--trials", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {suite} suite needs dimension at least 2\n"
