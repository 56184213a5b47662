"""Command-line interface: verbs, exit codes, JSON reports, REPL."""

import json

import pytest

from rzl.cli import _VERBS, _build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_inverse_series(capsys):
    code, out, _ = run(capsys, "eval", "1/(eps+w)", "--eps-digits", "8")
    assert code == 0
    assert out.strip() == "^0, 1, 0, -1, 0, 1, 0, -1, ..."


def test_eval_listing_goldens(capsys):
    cases = {
        "eps+w+1": "1, ^1, 1, 0, 0, 0, 0, 0, ...",
        "eps-w+1": "-1, ^1, 1, 0, 0, 0, 0, 0, ...",
        "eps*w+1": "0, ^2, 0, 0, 0, 0, 0, 0, ...",
        "eps*(-eps)+1": "^1, 0, -1, 0, 0, 0, 0, ...",
    }
    for text, expected in cases.items():
        code, out, _ = run(capsys, "eval", text)
        assert code == 0 and out.strip() == expected


def test_der_with_permeation(capsys):
    code, out, _ = run(capsys, "der", "x^2+2*x+3", "--at", "1")
    assert code == 0
    assert "der = ^4, 1, 0, 0, 0, 0, 0, ..." in out
    assert "permeated = 4" in out


def test_permeate_exit_tracks_verdict(capsys):
    code, out, _ = run(capsys, "permeate", "x^2", "--at", "1+eps")
    assert code == 0                     # membership certified
    assert "permeated: absent (Nst(x) != 0)" in out


def test_converge_hc(capsys):
    code, out, _ = run(capsys, "converge", "hc", "--seq", "eps^n",
                       "--limit", "0", "--terms", "20")
    assert code == 0 and "certified" in out


def test_converge_hc_refuted(capsys):
    code, out, _ = run(capsys, "converge", "hc", "--seq", "1/n",
                       "--limit", "0", "--radius", "eps", "--terms", "20")
    assert code == 2 and "refuted" in out


def test_converge_ignores_radius_outside_hc_and_cauchy(capsys):
    # cc and rc use no radius, so a radius they cannot evaluate changes nothing
    cases = [("cc", "1/n", "1/0"), ("rc", "eps^n", "x")]
    for mode, seq, radius in cases:
        for fmt in ("text", "json"):
            plain = run(capsys, "converge", mode, "--seq", seq, "--format", fmt)
            given = run(capsys, "converge", mode, "--seq", seq, "--radius", radius,
                        "--format", fmt)
            assert plain[0] == given[0] == 0
            if fmt == "text":
                assert given[1] == plain[1]
            else:
                doc, plain_doc = json.loads(given[1]), json.loads(plain[1])
                assert doc["verdict"] == plain_doc["verdict"]
                assert doc["radii"] == [radius] and plain_doc["radii"] == ["eps"]
    # hc still evaluates its radii
    code, _, err = run(capsys, "converge", "hc", "--seq", "1/n", "--radius", "1/0")
    assert code == 1 and "division by zero" in err


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "eps^3")
    assert code == 0 and out.strip() == "infinitesimal"
    code, out, _ = run(capsys, "classify", "0")
    assert code == 3


def test_inverse_error_exit(capsys):
    code, out, err = run(capsys, "inverse", "0")
    assert code == 1
    assert "certified leading term" in err


def test_continuity_exit_codes(capsys):
    code, _, _ = run(capsys, "continuity", "x", "--at", "0", "--k", "1", "--n", "0")
    assert code == 2
    code, _, _ = run(capsys, "continuity", "x", "--at", "0", "--k", "0", "--n", "0")
    assert code == 0
    code, _, _ = run(capsys, "continuity", "sin(x)", "--at", "1")
    assert code == 3


def test_json_report_schema(capsys):
    code, out, _ = run(capsys, "eval", "eps*w+1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "eval"
    assert doc["result"]["rendered"] == "0, ^2, 0, 0, 0, 0, 0, 0, ..."
    assert doc["result"]["low"] == -1
    assert {"index": -1, "value": "0"} in doc["result"]["coefficients"]
    assert doc["error"] is None
    # deterministic given fixed budgets
    code2, out2, _ = run(capsys, "eval", "eps*w+1", "--format", "json")
    assert out2 == out


def test_json_verdict_payload(capsys):
    code, out, _ = run(capsys, "converge", "cc", "--seq", "n*eps",
                       "--limit", "100*eps", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"]["state"] == "certified"
    assert doc["verdict"]["caveat"].startswith("terms")


def test_json_witness_scalars_are_strings(capsys):
    # a Fraction witness prints as "4", an int would print as 4
    code, out, _ = run(capsys, "der", "x^2+3*x", "--at", "1/2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"]["witness"] == ["st", "4", "classical", "4"]
    assert doc["report"]["in_E"]["witness"] == ["st", "4", "classical", "4"]


def test_json_witness_computable_reals_print_like_coefficients(capsys):
    code, out, _ = run(capsys, "permeate", "sin(x)", "--at", "1/3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"]["witness"] == ["st", "~0.944957", "classical", "~0.944957"]
    assert doc["report"]["in_E"]["witness"] == doc["verdict"]["witness"]
    assert "CompReal" not in out and "tag=" not in out


def test_json_error_payload(capsys):
    code, out, _ = run(capsys, "inverse", "0", "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert "certified leading term" in doc["error"]


def test_grossone_echo(capsys):
    code, out, _ = run(capsys, "eval", "G-100", "--grossone")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "① - 100"
    assert lines[1] == "1, ^-100, 0, 0, 0, 0, 0, 0, ..."


def test_rendered_literal_accepted(capsys):
    code, out, _ = run(capsys, "eval", "0, ^2, 2, 0, ...")
    assert code == 0 and out.strip() == "0, ^2, 2, 0, 0, 0, 0, 0, ..."


def test_parse_error_exit(capsys):
    code, _, err = run(capsys, "eval", "2 * foo")
    assert code == 1 and "unknown identifier" in err


def test_deep_nesting_exit(capsys):
    code, out, _ = run(capsys, "eval", "(" * 100 + "eps" + ")" * 100)
    assert code == 0 and out.strip() == "^0, 1, 0, 0, 0, 0, 0, ..."
    code, _, err = run(capsys, "eval", "(" * 1500 + "eps" + ")" * 1500)
    assert code == 1 and "nesting deeper than 100" in err


def test_deep_sum_exit(capsys):
    # a coefficient read of a long sum, or of a long product's classical
    # derivative, goes one stream deeper per term, past the recursion limit
    deep_sum = "+".join(["eps"] * 1500)
    code, out, _ = run(capsys, "eval", deep_sum)
    assert code == 0 and out.strip() == "^0, 1500, 0, 0, 0, 0, 0, ..."
    code, out, _ = run(capsys, "eval", deep_sum, "--format", "json")
    assert code == 0
    assert json.loads(out)["result"]["coefficients"][1] == {"index": 1, "value": "1500"}
    deep_product = "*".join(["x"] * 1500)
    code, out, _ = run(capsys, "der", deep_product)
    assert code == 0 and "permeated = 0" in out.splitlines()
    code, out, _ = run(capsys, "der", deep_product, "--at", "1")
    assert code == 0
    assert {"standard part = 1500", "permeated = 1500"} <= set(out.splitlines())
    code, out, _ = run(capsys, "der", deep_product, "--at", "1", "--format", "json")
    assert code == 0
    report = json.loads(out)["report"]
    assert report["standard_part"] == "1500" and report["permeated"] == "1500"


def test_deep_sum_verbs_exit_0(capsys):
    deep_sum = "+".join(["x"] * 1500)
    code, out, _ = run(capsys, "eval", deep_sum, "--at", "1/3")
    assert code == 0 and out.strip() == "^500, 0, 0, 0, 0, 0, 0, ..."
    code, out, _ = run(capsys, "der", deep_sum)
    assert code == 0 and "permeated = 1500" in out
    code, out, _ = run(capsys, "continuity", deep_sum, "--at", "1/3")
    assert code == 0 and out.startswith("(0,0)-continuity: certified")


def test_usage_errors_exit_1(capsys):
    for argv in (["eval", "-eps+1"], ["eval"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1, argv
        assert "'--'" in capsys.readouterr().err
    code, out, _ = run(capsys, "eval", "--", "-eps+1")
    assert code == 0 and out.strip() == "^1, -1, 0, 0, 0, 0, 0, ..."


def test_repl(capsys, monkeypatch):
    lines = iter(["eps*w+1", "nonsense$", ":q"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
    assert main([]) == 0
    out = capsys.readouterr()
    assert "0, ^2, 0, 0, 0, 0, 0, 0, ..." in out.out
    assert "error:" in out.err


def test_repl_goes_on_after_deep_sum(capsys, monkeypatch):
    lines = iter(["+".join(["eps"] * 1500), "1/0", "eps", ":q"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
    assert main([]) == 0
    out = capsys.readouterr()
    assert "error: division by zero" in out.err
    assert out.out.split("\n")[:2] == ["^0, 1500, 0, 0, 0, 0, 0, ...",
                                        "^0, 1, 0, 0, 0, 0, 0, ..."]


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_no_state_carries_over_between_calls(capsys):
    # an appended --radius must not leak into the next call's default
    expected = run(capsys, "converge", "hc", "--seq", "1/n", "--radius", "eps",
                   "--format", "json")
    run(capsys, "converge", "hc", "--seq", "1/n", "--radius", "1/4")
    got = run(capsys, "converge", "hc", "--seq", "1/n", "--format", "json")
    assert got == expected
    assert json.loads(got[1])["radii"] == ["eps"]


def test_converge_bad_exponent_exit(capsys):
    code, out, err = run(capsys, "converge", "cc", "--seq", "eps^(sin(n))")
    assert code == 1 and out == ""
    assert err == "error: exponent must resolve to a nonnegative integer\n"


@pytest.mark.parametrize("argv", [
    ["cc", "--seq", "n", "--terms", "0"],
    ["hc", "--seq", "n", "--terms", "0"],
    ["rc", "--seq", "n", "--terms", "0"],
    ["rc", "--seq", "n", "--terms", "3", "--indices", "-1"],
    ["cauchy", "--seq", "n", "--terms", "1"],
    ["cauchy", "--seq", "n", "--terms", "0"],
], ids=" ".join)
def test_converge_empty_window_exit(capsys, argv):
    code, out, _ = run(capsys, "converge", *argv, "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["command"] == "converge"
    assert "window of" in doc["error"] or "index budget" in doc["error"]


@pytest.mark.parametrize("argv", [
    ["eval", "1/3"],
    ["der", "x^2"],
    ["permeate", "x^2"],
    ["continuity", "x", "--at", "1/3"],
    ["converge", "cc", "--seq", "1/n"],
    ["converge", "hc", "--seq", "1/n"],
    ["converge", "rc", "--seq", "1/n"],
    ["converge", "cauchy", "--seq", "1/n"],
    ["classify", "eps"],
    ["inverse", "1+eps"],
], ids=" ".join)
def test_depth_below_1_exits_1(capsys, argv):
    code, out, err = run(capsys, *argv, "--depth", "0")
    assert (code, out, err) == (1, "", "error: depth must be a positive integer\n")
    code, out, _ = run(capsys, *argv, "--depth", "0", "--format", "json")
    assert code == 1
    assert json.loads(out) == {"command": argv[0], "error": "depth must be a positive integer"}


@pytest.mark.parametrize("argv", [[]] + [[verb] for verb in _VERBS])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(" ".join(["usage: rzl", *argv]))
