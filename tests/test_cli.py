"""Command-line interface: subcommands, exit codes, reproducibility."""

import json
import subprocess
import sys

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
    import math
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


def test_besicovitch_search(capsys):
    code = main(["besicovitch", "search", "--group", "abelian", "--weights", "1",
                 "--kind", "hs", "--R", "1", "--budget", "500", "--seed", "0",
                 "--strategy", "random"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["cardinality"] == 2
    assert out["family"]["mode"] == "exact"


def test_besicovitch_cover(tmp_path, capsys):
    data = {"points": [[float(i), 0.0] for i in range(6)], "radii": [1.0] * 6}
    path = tmp_path / "pts.json"
    path.write_text(json.dumps(data))
    code = main(["besicovitch", "cover", "--group", "abelian", "--weights", "1,1",
                 "--kind", "hs", "--R", "1", "--points", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["covered"] and out["quarter_disjoint"]


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


def test_config_error_exit_64():
    assert main(["classify", "--group", "no_such_group"]) == 64
    assert main(["dist", "--group", "heisenberg", "--kind", "hs",
                 "--p", "0,0", "--q", "1,1,1"]) == 64  # dimension mismatch


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
