"""Command-line interface: subcommands, exit codes, reproducibility."""

import json
import math
import subprocess
import sys
from fractions import Fraction

import pytest

from carnot_bcp.cli import main

RUN = [sys.executable, "-m", "carnot_bcp.cli"]


def run_cli(args, **kw):
    return subprocess.run(RUN + args, capture_output=True, text=True, **kw)


def test_classify_nonstandard(capsys):
    code = main(["classify", "--group", "heisenberg_nonstandard", "--alpha", "2"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["bcp_admissible"] is False
    assert out["commuting_different_layers"] is False
    assert out["witness"] == {"t": "1", "s": "2", "i": 1, "j": 2}
    assert "quotient_witness" in out


def test_classify_standard(capsys):
    code = main(["classify", "--group", "heisenberg", "--n", "2"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["bcp_admissible"] is True


def test_classify_from_file(tmp_path, capsys):
    import carnot_bcp as cb
    path = tmp_path / "g.json"
    cb.save_group(cb.heisenberg_nonstandard_group(2), path)
    code = main(["classify", "--group", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["bcp_admissible"] is False


def test_dist_eval(capsys):
    code = main(["dist", "--group", "heisenberg", "--n", "1", "--kind", "hs",
                 "--R", "1", "--p", "0,0,0", "--q", "0,0,1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["value"] == pytest.approx(1.0, rel=1e-12)
    assert out["backend"] == "exact-comparable"


def test_dist_eval_cc(capsys):
    code = main(["dist", "--group", "heisenberg", "--n", "1", "--kind", "cc_h1",
                 "--scale", "1", "--p", "0,0,0", "--q", "0,0,1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["value"] == pytest.approx(2 * math.sqrt(math.pi), rel=1e-8)
    assert out["backend"] == "float"


def test_besicovitch_verify_exit_codes(tmp_path, capsys):
    fam = {"centers": [["-1"], ["1"]], "radii": ["1", "1"], "witness": ["0"],
           "mode": "exact"}
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(fam))
    code = main(["besicovitch", "verify", "--group", "abelian", "--weights", "1",
                 "--kind", "hs", "--R", "1", "--family", str(path)])
    assert code == 0
    bad = {"centers": [["1/2"], ["1"]], "radii": ["1/2", "1"], "witness": ["0"],
           "mode": "exact"}
    path.write_text(json.dumps(bad))
    code = main(["besicovitch", "verify", "--group", "abelian", "--weights", "1",
                 "--kind", "hs", "--R", "1", "--family", str(path)])
    assert code == 2


# margin-mode family files on the line that would certify nothing: each of
# them, unchecked, passes every float comparison and is reported valid
CERTIFY_NOTHING = {
    # NaN slacks fail no comparison: "min_slack": NaN
    "nan_radii": {"centers": [["1"], ["1"], ["1"]], "radii": ["nan"] * 3,
                  "witness": ["0"]},
    "negative_epsilon": {"centers": [["1"], ["1"]], "radii": ["1", "1"],
                         "witness": ["0"], "epsilon": -10},
    # center 1 lies on the boundary of ball 0: slack 0 < NaN is false
    "nan_epsilon": {"centers": [["0"], ["1"]], "radii": ["1", "1"],
                    "witness": ["0.5"], "epsilon": "nan"},
    # "min_slack": Infinity is not even JSON
    "infinite_radius": {"centers": [["0"]], "radii": ["inf"], "witness": ["0"]},
    # a malformed input, not a solver failure (it exited 70)
    "nan_center": {"centers": [["nan"]], "radii": ["1"], "witness": ["0"]},
}
LINE_FLAGS = ["--group", "abelian", "--weights", "1", "--kind", "hs", "--R", "1"]


@pytest.mark.parametrize("name", sorted(CERTIFY_NOTHING))
def test_verify_refuses_a_family_that_certifies_nothing(name, tmp_path, capsys):
    from carnot_bcp.cli import _load_family
    from carnot_bcp.metrics import euclidean_line
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({**CERTIFY_NOTHING[name], "mode": "margin"}))
    assert main(["besicovitch", "verify", *LINE_FLAGS, "--family", str(path)]) == 64
    assert "configuration error" in capsys.readouterr().err
    with pytest.raises(ValueError, match="finite"):
        _load_family(path, euclidean_line())


# family files that are not what they say: the parent read the first three
# with a TypeError (exit 1), the string point as (1,), and the unknown mode as
# a margin family (both exit 0)
MALFORMED_FAMILY = {
    "scalar_witness": {"centers": [["1"]], "radii": ["1"], "witness": 0.5,
                       "mode": "margin"},
    "scalar_center": {"centers": [3], "radii": ["1"], "witness": ["0"]},
    "scalar_radii": {"centers": [["1"]], "radii": 1, "witness": ["0"]},
    "string_center": {"centers": ["1"], "radii": ["1"], "witness": ["0"]},
    "unknown_mode": {"centers": [["1"]], "radii": ["1"], "witness": ["0"],
                     "mode": "Exact"},
}


@pytest.mark.parametrize("where", ["center", "radius", "witness"])
@pytest.mark.parametrize("inf", [math.inf, -math.inf], ids=["Infinity", "-Infinity"])
def test_an_infinite_number_in_an_exact_family_is_a_configuration_error(where, inf,
                                                                        tmp_path, capsys):
    # Fraction(Infinity) raised OverflowError: exit 1 with a traceback
    fam = {"centers": [[1]], "radii": [1], "witness": [0], "mode": "exact"}
    fam = {"center": {**fam, "centers": [[inf]]}, "radius": {**fam, "radii": [inf]},
           "witness": {**fam, "witness": [inf]}}[where]
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(fam))
    assert main(["besicovitch", "verify", *LINE_FLAGS, "--family", str(path)]) == 64
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(MALFORMED_FAMILY))
def test_verify_refuses_a_malformed_family_file(name, tmp_path, capsys):
    from carnot_bcp.cli import _load_family
    from carnot_bcp.metrics import euclidean_line
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(MALFORMED_FAMILY[name]))
    assert main(["besicovitch", "verify", *LINE_FLAGS, "--family", str(path)]) == 64
    assert "configuration error" in capsys.readouterr().err
    with pytest.raises(ValueError):
        _load_family(path, euclidean_line())


def test_besicovitch_search(capsys):
    code = main(["besicovitch", "search", "--group", "abelian", "--weights", "1",
                 "--kind", "hs", "--R", "1", "--budget", "500", "--seed", "0",
                 "--strategy", "random"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["cardinality"] == 2
    assert out["family"]["mode"] == "exact"


@pytest.mark.parametrize("flags", [
    ["--group", "heisenberg", "--kind", "cc_h1"],
    ["--group", "abelian", "--weights", "1", "--kind", "snowflake_product_lp", "--r", "2"],
    # weights 3/2, 15/8, 27/8: the HS rule on the power group fails
    ["--group", "heisenberg_nonstandard", "--alpha", "5/4", "--kind", "power", "--t", "3/2"],
], ids=["cc_h1", "lp_r2", "power_t3_2"])
def test_a_search_without_exact_comparisons_gives_a_margin_family(flags, capsys):
    # cc_h1 exited 64 asking for exact=False; the other two returned an
    # "exact" family of 0 balls
    code = main(["besicovitch", "search", *flags, "--budget", "2000", "--seed", "0"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["cardinality"] >= 1
    assert out["family"]["mode"] == "margin"


def test_a_power_of_exponent_3_2_on_heisenberg_gives_an_exact_family(tmp_path, capsys):
    # weights 3/2, 3/2, 3 have every 2w an integer: the power is the HS
    # distance on the power group, and exact-capable
    flags = ["--group", "heisenberg", "--kind", "power", "--t", "3/2"]
    out = tmp_path / "search.json"
    assert main(["besicovitch", "search", *flags, "--budget", "2000", "--seed", "0",
                 "--out", str(out)]) == 0
    res = json.loads(out.read_text())
    assert res["cardinality"] >= 1 and res["family"]["mode"] == "exact"
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps(res["family"]))
    capsys.readouterr()
    assert main(["besicovitch", "verify", *flags, "--family", str(fam)]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["valid"] and got["mode"] == "exact"
    assert got["cardinality"] == res["cardinality"]
    assert main(["dist", *flags, "--p", "0,0,0", "--q", "1,0,0"]) == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "hs"


def test_the_mode_is_no_flag_and_no_config_key(tmp_path, capsys):
    assert main(["besicovitch", "search", *LINE_FLAGS, "--float-mode"]) == 64
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"subcommand": "besicovitch", "action": "search",
                                "group": "abelian", "weights": "1", "float_mode": True}))
    assert main(["report", "--config", str(path)]) == 64
    assert capsys.readouterr().out == ""


def test_besicovitch_cover(tmp_path, capsys):
    data = {"points": [[float(i), 0.0] for i in range(6)], "radii": [1.0] * 6}
    path = tmp_path / "pts.json"
    path.write_text(json.dumps(data))
    code = main(["besicovitch", "cover", "--group", "abelian", "--weights", "1,1",
                 "--kind", "hs", "--R", "1", "--points", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["covered"] and out["quarter_disjoint"]


# points files the cover cannot use: the NaN and the negative radii made the
# parent loop forever, the length mismatch and the scalar point exited 1
MALFORMED_POINTS = {
    "nan_radius": {"points": [[0.0], [3.0]], "radii": [float("nan"), 1.0]},
    "negative_radii": {"points": [[0.0], [3.0]], "radii": [-1.0, -2.0]},
    "infinite_radius": {"points": [[0.0], [3.0]], "radii": [1.0, float("inf")]},
    "length_mismatch": {"points": [[0.0], [3.0]], "radii": [1.0]},
    "scalar_point": {"points": [0.0, [3.0]], "radii": [1.0, 1.0]},
}


@pytest.mark.parametrize("name", sorted(MALFORMED_POINTS))
def test_cover_refuses_a_malformed_points_file(name, tmp_path):
    path = tmp_path / "pts.json"
    path.write_text(json.dumps(MALFORMED_POINTS[name]))
    # in a subprocess, so that a cover that never ends fails the test
    res = run_cli(["besicovitch", "cover", *LINE_FLAGS, "--points", str(path)],
                  timeout=60)
    assert res.returncode == 64
    assert "configuration error" in res.stderr


# files whose shape the loaders did not check: each exited 1 with a
# traceback (AttributeError or TypeError) instead of a configuration error
MALFORMED_SHAPES = {
    "verify_top_level_array": (["besicovitch", "verify", "--family"], [1, 2]),
    "verify_array_coordinate": (["besicovitch", "verify", "--family"],
                                {"centers": [[[1]]], "radii": [1], "witness": [0]}),
    "cover_array_coordinate": (["besicovitch", "cover", "--points"],
                               {"points": [[[0.0]]], "radii": [1.0]}),
    "cover_top_level_array": (["besicovitch", "cover", "--points"], [[0.0]]),
    "report_top_level_array": (["report", "--config"], [1]),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_SHAPES))
def test_malformed_file_shapes_are_configuration_errors(name, tmp_path):
    command, content = MALFORMED_SHAPES[name]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    flags = LINE_FLAGS if command[0] == "besicovitch" else []
    res = run_cli(command + [str(path)] + flags, timeout=60)
    assert res.returncode == 64
    assert res.stderr.startswith("configuration error: ") and "Traceback" not in res.stderr


def test_family_with_integers_beyond_the_conversion_limit_round_trips(tmp_path):
    # centers 0, 500 and 999 of the 1000-ball orbit: coordinates of up to
    # 5,400 digits, beyond the 4,300 of one int <-> str conversion
    from dataclasses import replace

    import carnot_bcp as cb
    from carnot_bcp.besicovitch import dilation_orbit_family
    from carnot_bcp.metrics import HSDistance
    from carnot_bcp.scalars import parse_scalar
    u1, u2 = Fraction(3, 100), Fraction(-41, 100)
    s = u1 * u1 + u2 * u2
    p = (2 * u1 / (1 + s), 2 * u2 / (1 + s), (1 - s) / (1 + s))
    d = HSDistance(cb.heisenberg_nonstandard_group(2), Fraction(1))
    res = dilation_orbit_family(d, p, Fraction(1, 2), k=6, count=1000)
    assert res.ok
    fam = res.family
    assert max(x.denominator for x in fam.centers[999]) > 10 ** 5000
    # the whole result serializes, and its text reads back
    whole = json.loads(json.dumps(res.to_json()))
    assert [parse_scalar(x) for x in whole["family"]["centers"][999]] == list(fam.centers[999])
    sub = replace(fam, centers=tuple(fam.centers[i] for i in (0, 500, 999)),
                  radii=tuple(fam.radii[i] for i in (0, 500, 999)))
    data = sub.to_json()
    path = tmp_path / "family.json"
    path.write_text(json.dumps(data))
    out = run_cli(["besicovitch", "verify", "--group", "heisenberg_nonstandard",
                   "--alpha", "2", "--kind", "hs", "--R", "1", "--family", str(path)],
                  timeout=120)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == {"valid": True, "cardinality": 3, "mode": "exact",
                                      "violations": [], "min_slack": None}


def test_certify_lemmas(capsys):
    code = main(["certify-lemmas", "--lemma", "away", "--rank", "2", "--R", "1",
                 "--samples", "500", "--seed", "7"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["violations"] == []


def test_countable_space(capsys):
    code = main(["countable-space", "--n", "50", "--grid", "8"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["triangle_exact"] and out["ball_structure_exact"]
    assert out["two_ball_audit"]["ok"]
    assert out["validation_issues"] == []


def test_report_runs_config(tmp_path, capsys):
    cfg = {"subcommand": "classify", "group": "heisenberg_nonstandard",
           "alpha": "2"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = main(["report", "--config", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["bcp_admissible"] is False


def test_a_point_with_a_negative_first_coordinate_parses(tmp_path, capsys):
    # "-1,2,3" after --p was read as a flag: both forms exited 64 with
    # "expected one argument", and only "--p=-1,2,3" worked
    flags = ["dist", "--group", "heisenberg", "--kind", "hs"]
    assert main([*flags, "--p=-1,2,3", "--q=0,0,-1/2"]) == 0
    want = json.loads(capsys.readouterr().out)
    assert main([*flags, "--p", "-1,2,3", "--q", "0,0,-1/2"]) == 0
    assert json.loads(capsys.readouterr().out) == want
    cfg = {"subcommand": "dist", "group": "heisenberg", "kind": "hs",
           "p": "-1,2,3", "q": "0,0,-1/2"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["report", "--config", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == want
    assert want["value"] > 0


def test_config_error_exit_64(tmp_path):
    assert main(["classify", "--group", "no_such_group"]) == 64
    assert main(["dist", "--group", "heisenberg", "--kind", "hs",
                 "--p", "0,0", "--q", "1,1,1"]) == 64  # dimension mismatch
    # a config key that is no flag of its subcommand
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"subcommand": "classify", "bogus": "1",
                                "group": "heisenberg"}))
    assert main(["report", "--config", str(path)]) == 64


# each of these inputs read "1/0" as a Fraction and exited 1 with a
# ZeroDivisionError traceback; GROUP and FAMILY name files the test writes
ZERO_DENOMINATOR = {
    "p": ["dist", "--group", "heisenberg", "--p", "1/0,0,0", "--q", "0,0,1"],
    "R": ["dist", "--group", "heisenberg", "--R", "1/0", "--p", "0,0,0", "--q", "0,0,1"],
    "t": ["dist", "--group", "heisenberg", "--kind", "power", "--t", "1/0",
          "--p", "0,0,0", "--q", "0,0,1"],
    "r_exp": ["dist", "--group", "abelian", "--weights", "1", "--kind",
              "snowflake_product_lp", "--r-exp", "1/0", "--p", "0,0", "--q", "1,1"],
    "alpha": ["classify", "--group", "heisenberg_nonstandard", "--alpha", "1/0"],
    "weights": ["classify", "--group", "abelian", "--weights", "1,1/0"],
    "group_weight": ["classify", "--group", "GROUP"],
    "family_coordinate": ["besicovitch", "verify", *LINE_FLAGS, "--family", "FAMILY"],
}


@pytest.mark.parametrize("name", sorted(ZERO_DENOMINATOR))
def test_a_zero_denominator_is_a_configuration_error(name, tmp_path):
    files = {"GROUP": tmp_path / "group.json", "FAMILY": tmp_path / "family.json"}
    files["GROUP"].write_text(json.dumps({"dim": 2, "weights": ["1", "1/0"]}))
    files["FAMILY"].write_text(json.dumps({"centers": [["1/0"]], "radii": ["1"],
                                           "witness": ["0"]}))
    res = run_cli([str(files.get(a, a)) for a in ZERO_DENOMINATOR[name]], timeout=60)
    assert res.returncode == 64 and res.stdout == ""
    assert res.stderr.startswith("configuration error: ") and "Traceback" not in res.stderr


@pytest.mark.parametrize("lemma", ["aq", "small_angles", "away", "near2a", "inbetween"])
def test_certify_lemmas_without_samples_exit_64(lemma, capsys):
    # the containment sweeps exited 0 and printed "max_a_form": -Infinity
    assert main(["certify-lemmas", "--lemma", lemma, "--samples", "0"]) == 64
    out, err = capsys.readouterr()
    assert out == "" and "at least one sample" in err


def test_no_admissible_epsilon_exit_70(capsys):
    # a lemma inequality with no room is a solver outcome, not a bad config
    assert main(["certify-lemmas", "--lemma", "away", "--R", "100"]) == 70
    assert "no admissible epsilon" in capsys.readouterr().err


def test_reports_byte_identical(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["besicovitch", "search", "--group", "heisenberg_nonstandard",
            "--alpha", "2", "--kind", "hs", "--R", "1", "--budget", "2000",
            "--seed", "11"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_output_round_trips_through_parser(tmp_path, capsys):
    # search output is a family payload the verifier accepts
    out = tmp_path / "fam.json"
    code = main(["besicovitch", "search", "--group", "abelian", "--weights", "1",
                 "--kind", "hs", "--R", "1", "--budget", "300", "--seed", "0",
                 "--strategy", "random", "--out", str(out)])
    assert code == 0
    fam_payload = json.loads(out.read_text())["family"]
    fam_path = tmp_path / "fam_only.json"
    fam_path.write_text(json.dumps(fam_payload))
    code = main(["besicovitch", "verify", "--group", "abelian", "--weights", "1",
                 "--kind", "hs", "--R", "1", "--family", str(fam_path)])
    assert code == 0


def test_console_entry_point():
    proc = run_cli(["classify", "--group", "abelian", "--weights", "1,2"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["bcp_admissible"] is True


def test_dist_with_a_huge_root_order_falls_back_to_float():
    # weights (1, 1 + 1e-10): the exact probe would need a 5e9-th root of
    # the radius, which is decided at once to be irrational
    proc = run_cli(["dist", "--group", "abelian", "--weights", "1,1.0000000001",
                    "--kind", "hs", "--p", "0,0", "--q", "1,1/3"], timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["backend"] == "float"


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", ["--p", "--q"])
@pytest.mark.parametrize("kind", ["hs", "cc_h1"])
def test_a_nonfinite_dist_coordinate_is_a_configuration_error(kind, where, bad):
    # each exited 70 with "solver failure: nonfinite coordinates"
    points = {"--p": "0,0,0", "--q": "1,0,0"}
    points[where] = f"{bad},0,0"
    # "--p=-inf,..." in one word, as argparse reads "-inf,..." as a flag
    proc = run_cli(["dist", "--group", "heisenberg", "--kind", kind,
                    *(f"{flag}={point}" for flag, point in points.items())], timeout=60)
    assert proc.returncode == 64
    assert proc.stderr.startswith("configuration error: ") and proc.stdout == ""


def test_the_search_jobs_do_not_depend_on_the_environment(monkeypatch):
    # --jobs took its default from CARNOT_BCP_JOBS, so the same argv printed
    # another report where that variable was set
    import carnot_bcp.cli as cli

    monkeypatch.setenv("CARNOT_BCP_JOBS", "2")
    args = cli.build_parser().parse_args(
        ["besicovitch", "search", "--group", "heisenberg_nonstandard", "--alpha", "2"])
    assert args.jobs == 1


def test_jobs_share_out_the_whole_budget(monkeypatch, capsys):
    # the workers run in threads of this process here; the budgets they get
    # must add up to --budget, the remainder spread one proposal each
    import concurrent.futures

    import carnot_bcp.cli as cli

    budgets = []
    worker = cli._search_worker

    def recording_worker(args, seed, budget):
        budgets.append(budget)
        return worker(args, seed, budget)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        concurrent.futures.ThreadPoolExecutor)
    monkeypatch.setattr(cli, "_search_worker", recording_worker)
    code = main(["besicovitch", "search", "--group", "abelian", "--weights", "1",
                 "--kind", "hs", "--budget", "103", "--jobs", "4",
                 "--strategy", "random"])
    assert code == 0
    assert sorted(budgets) == [25, 26, 26, 26]
    assert json.loads(capsys.readouterr().out)["proposals_used"] in (25, 26)


# flags that build each built-in tag; the registry in algebra is the one list
BUILTIN_FLAGS = {
    "abelian": ["--weights", "1,2"],
    "heisenberg": ["--n", "2"],
    "heisenberg_nonstandard": ["--alpha", "3/2"],
    "free_step2": ["--rank", "3"],
    "step3_rank3": [],
}


def test_every_builtin_tag_classifies(capsys):
    from carnot_bcp.algebra import _BUILTINS
    assert set(BUILTIN_FLAGS) == set(_BUILTINS)
    for tag, flags in BUILTIN_FLAGS.items():
        assert main(["classify", "--group", tag] + flags) == 0
        assert json.loads(capsys.readouterr().out)["group"]


@pytest.mark.parametrize("tag,param", [("abelian", "weights"),
                                       ("heisenberg_nonstandard", "alpha"),
                                       ("free_step2", "rank")])
def test_missing_group_parameter_is_named(tag, param, capsys):
    # --n has a default, so only these three parameters can be missing
    assert main(["classify", "--group", tag]) == 64
    assert f"'{param}'" in capsys.readouterr().err
