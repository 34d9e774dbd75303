"""End-to-end CLI tests, run in process through main().

Every pinned exit code is exercised: 0 success, 1 usage/config, 2 data,
3 artifact, 4 numerical abort, 5 selfcheck failure.
"""

import os

import numpy as np
import pytest

from dualrec import cli
from dualrec.training import NumericalAbortError

TINY_SPEC = """\
num_users = 40
num_items_a = 60
num_items_b = 50
latent_dim = 2
shared_strength = 3.0
specific_strength = 0.8
independent_strength = 0.8
rate_a = 0.12
rate_b = 0.10
min_count = 2
seed = 0
"""


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "spec.txt"
    path.write_text(TINY_SPEC)
    return str(path)


@pytest.fixture()
def data_dir(tmp_path, spec_file):
    out = str(tmp_path / "data")
    code = cli.main(["synth", "--spec", spec_file, "--out", out, "--candidates", "20"])
    assert code == cli.EXIT_OK
    return out


def run_train(data_dir, out, extra=()):
    return cli.main([
        "train", "--data", data_dir, "--out", out,
        "--k", "4", "--l", "1", "--epochs", "2", "--lr", "0.02",
        *extra,
    ])


class TestSynthAndPrepare:
    def test_synth_writes_complete_artifacts(self, data_dir):
        for domain in ("domain_a", "domain_b"):
            for name in ("train.tsv", "test.tsv", "candidates.tsv", "meta"):
                assert os.path.isfile(os.path.join(data_dir, domain, name))

    def test_synth_is_deterministic(self, tmp_path, spec_file):
        out1, out2 = str(tmp_path / "d1"), str(tmp_path / "d2")
        assert cli.main(["synth", "--spec", spec_file, "--out", out1,
                         "--candidates", "20"]) == 0
        assert cli.main(["synth", "--spec", spec_file, "--out", out2,
                         "--candidates", "20"]) == 0
        for domain in ("domain_a", "domain_b"):
            for name in ("train.tsv", "test.tsv", "candidates.tsv"):
                p1 = os.path.join(out1, domain, name)
                p2 = os.path.join(out2, domain, name)
                assert open(p1).read() == open(p2).read()

    def test_synth_missing_spec_is_artifact_error(self, tmp_path):
        code = cli.main(["synth", "--spec", str(tmp_path / "none.txt"),
                         "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_ARTIFACT

    def test_synth_bad_spec_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("num_users = 40\nwhatever = 3\n")
        code = cli.main(["synth", "--spec", str(bad), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_USAGE

    def test_prepare_from_rating_files(self, tmp_path):
        rng = np.random.default_rng(0)
        for tag, n_items in (("a", 30), ("b", 25)):
            lines = ["# synthetic ratings"]
            for u in range(25):
                for i in rng.choice(n_items, size=8, replace=False):
                    lines.append(f"user{u}\t{tag}{i}\t{rng.integers(1, 6)}")
            (tmp_path / f"ratings_{tag}.tsv").write_text("\n".join(lines) + "\n")
        out = str(tmp_path / "prepared")
        code = cli.main([
            "prepare",
            "--domain-a", str(tmp_path / "ratings_a.tsv"),
            "--domain-b", str(tmp_path / "ratings_b.tsv"),
            "--out", out, "--min-count", "3", "--candidates", "10",
        ])
        assert code == cli.EXIT_OK
        assert os.path.isfile(os.path.join(out, "domain_a", "train.tsv"))

    def test_prepare_missing_input_is_data_error(self, tmp_path):
        code = cli.main([
            "prepare", "--domain-a", str(tmp_path / "missing.tsv"),
            "--domain-b", str(tmp_path / "missing.tsv"),
            "--out", str(tmp_path / "out"),
        ])
        assert code == cli.EXIT_DATA

    def test_prepare_disjoint_users_is_data_error(self, tmp_path):
        for tag, prefix in (("a", "left"), ("b", "right")):
            lines = [f"{prefix}{u}\t{tag}{i}\t5" for u in range(8) for i in range(6)]
            (tmp_path / f"r_{tag}.tsv").write_text("\n".join(lines) + "\n")
        code = cli.main([
            "prepare", "--domain-a", str(tmp_path / "r_a.tsv"),
            "--domain-b", str(tmp_path / "r_b.tsv"),
            "--out", str(tmp_path / "out"), "--min-count", "2", "--candidates", "2",
        ])
        assert code == cli.EXIT_DATA


class TestBadArtifacts:
    """A corrupted artifact stops train and eval with exit 3 and one line."""

    def corrupt(self, data_dir, name, edit):
        path = os.path.join(data_dir, "domain_a", name)
        with open(path) as fh:
            lines = fh.read().splitlines()
        with open(path, "w") as fh:
            fh.write("\n".join(edit(lines)) + "\n")

    def assert_artifact_error(self, tmp_path, data_dir, capsys, match):
        capsys.readouterr()
        assert run_train(data_dir, str(tmp_path / "run")) == cli.EXIT_ARTIFACT
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("artifact error: ")
        assert match in err

    def test_train_item_out_of_range(self, tmp_path, data_dir, capsys):
        def edit(lines):
            u = lines[0].split("\t")[0]
            return [f"{u}\t100000"] + lines[1:]

        self.corrupt(data_dir, "train.tsv", edit)
        self.assert_artifact_error(tmp_path, data_dir, capsys, "is outside")

    @pytest.mark.parametrize("items,match", [
        (lambda old: ["5", "5", "5"], "has 3 candidates, expected 20"),
        (lambda old: [old[1]] + old[1:], "repeated candidate"),
    ])
    def test_candidate_line_rejected(self, tmp_path, data_dir, capsys, items, match):
        def edit(lines):
            u, old = lines[0].split("\t")
            return [f"{u}\t{','.join(items(old.split(',')))}"] + lines[1:]

        self.corrupt(data_dir, "candidates.tsv", edit)
        self.assert_artifact_error(tmp_path, data_dir, capsys, match)

    def test_eval_rejects_bad_candidates(self, tmp_path, data_dir, capsys):
        run_dir = str(tmp_path / "run")
        assert run_train(data_dir, run_dir) == cli.EXIT_OK
        self.corrupt(data_dir, "candidates.tsv", lambda lines: lines[1:])
        capsys.readouterr()
        code = cli.main(["eval", "--data", data_dir,
                         "--model", os.path.join(run_dir, "model.npz"),
                         "--out", str(tmp_path / "rep.txt")])
        assert code == cli.EXIT_ARTIFACT
        assert capsys.readouterr().err.startswith("artifact error: ")


class TestTrainEval:
    def test_train_then_eval(self, tmp_path, data_dir):
        run_dir = str(tmp_path / "run")
        assert run_train(data_dir, run_dir) == cli.EXIT_OK
        assert os.path.isfile(os.path.join(run_dir, "model.npz"))
        log = open(os.path.join(run_dir, "train.log")).read().splitlines()
        assert log[0].startswith("epoch\tloss_total")
        assert len(log) == 1 + 2

        report_path = str(tmp_path / "report.txt")
        code = cli.main(["eval", "--data", data_dir,
                         "--model", os.path.join(run_dir, "model.npz"),
                         "--out", report_path])
        assert code == cli.EXIT_OK
        text = open(report_path).read()
        assert "hr_a = " in text and "ranks_b = " in text

    def test_train_is_deterministic(self, tmp_path, data_dir):
        r1, r2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        assert run_train(data_dir, r1) == 0
        assert run_train(data_dir, r2) == 0
        m1 = np.load(os.path.join(r1, "model.npz"))
        m2 = np.load(os.path.join(r2, "model.npz"))
        assert sorted(m1.files) == sorted(m2.files)
        for name in m1.files:
            np.testing.assert_array_equal(m1[name], m2[name])
        log1 = open(os.path.join(r1, "train.log")).read()
        assert log1 == open(os.path.join(r2, "train.log")).read()

    def test_eval_threads_do_not_change_metrics(self, tmp_path, data_dir):
        run_dir = str(tmp_path / "run")
        assert run_train(data_dir, run_dir) == 0
        reports = []
        for threads, name in ((1, "t1.txt"), (5, "t5.txt")):
            path = str(tmp_path / name)
            code = cli.main(["eval", "--data", data_dir,
                             "--model", os.path.join(run_dir, "model.npz"),
                             "--out", path, "--threads", str(threads)])
            assert code == cli.EXIT_OK
            keep = [line for line in open(path).read().splitlines()
                    if not line.startswith(("wallclock_s", "config.eval_threads"))]
            reports.append(keep)
        assert reports[0] == reports[1]

    def test_eval_missing_model_is_artifact_error(self, tmp_path, data_dir):
        code = cli.main(["eval", "--data", data_dir,
                         "--model", str(tmp_path / "none.npz"),
                         "--out", str(tmp_path / "rep.txt")])
        assert code == cli.EXIT_ARTIFACT

    def test_train_missing_data_is_artifact_error(self, tmp_path):
        code = run_train(str(tmp_path / "nowhere"), str(tmp_path / "run"))
        assert code == cli.EXIT_ARTIFACT

    def test_bad_config_value_is_usage_error(self, tmp_path, data_dir):
        code = cli.main(["train", "--data", data_dir, "--out", str(tmp_path / "run"),
                         "--k", "0"])
        assert code == cli.EXIT_USAGE

    def test_config_file_and_override(self, tmp_path, data_dir):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 4\nl = 1\nepochs = 1\nlr = 0.02\nvariant = base\n")
        run_dir = str(tmp_path / "run")
        code = cli.main(["train", "--data", data_dir, "--out", run_dir,
                         "--config", str(cfg), "--epochs", "2"])
        assert code == cli.EXIT_OK
        log = open(os.path.join(run_dir, "train.log")).read().splitlines()
        assert len(log) == 1 + 2  # flag overrides the file value

    def test_numerical_abort_maps_to_exit_4(self, tmp_path, data_dir, monkeypatch):
        def explode(*args, **kwargs):
            raise NumericalAbortError("non-finite training loss at epoch 0 step 0",
                                      {"epoch": 0, "step": 0})
        monkeypatch.setattr(cli, "train_model", explode)
        code = run_train(data_dir, str(tmp_path / "run"))
        assert code == cli.EXIT_NUMERIC


class TestAblateSweep:
    def test_ablate_writes_full_table(self, tmp_path, data_dir):
        out = str(tmp_path / "ablation.tsv")
        code = cli.main(["ablate", "--data", data_dir, "--out", out,
                         "--k", "4", "--l", "1", "--epochs", "1"])
        assert code == cli.EXIT_OK
        lines = open(out).read().strip().split("\n")
        assert lines[0] == "variant\thr_a\tndcg_a\thr_b\tndcg_b"
        assert len(lines) == 1 + 8

    def test_sweep_grid(self, tmp_path, data_dir):
        out = str(tmp_path / "sweep.tsv")
        code = cli.main(["sweep", "--data", data_dir, "--param", "lr",
                         "--grid", "0.01,0.02", "--out", out,
                         "--k", "4", "--l", "1", "--epochs", "1"])
        assert code == cli.EXIT_OK
        lines = open(out).read().strip().split("\n")
        assert lines[0].startswith("lr\t")
        assert len(lines) == 3

    def test_sweep_bad_param_is_usage_error(self, tmp_path, data_dir):
        code = cli.main(["sweep", "--data", data_dir, "--param", "k",
                         "--grid", "4", "--out", str(tmp_path / "s.tsv")])
        assert code == cli.EXIT_USAGE


class TestUsageAndSelfcheck:
    def test_no_command_is_usage_error(self, capsys):
        assert cli.main([]) == cli.EXIT_USAGE

    def test_unknown_command_is_usage_error(self):
        assert cli.main(["frobnicate"]) == cli.EXIT_USAGE

    def test_missing_required_flag_is_usage_error(self):
        assert cli.main(["train", "--out", "x"]) == cli.EXIT_USAGE

    def test_selfcheck_passes(self, capsys):
        assert cli.main(["selfcheck"]) == cli.EXIT_OK
        assert "selfcheck passed" in capsys.readouterr().out

    def test_selfcheck_fault_injection_fails(self, capsys):
        assert cli.main(["selfcheck", "--inject-gradient-fault"]) == cli.EXIT_SELFCHECK
        assert "selfcheck FAILED" in capsys.readouterr().out
