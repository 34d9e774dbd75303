"""End-to-end CLI tests, run in process through main().

Every pinned exit code is exercised: 0 success, 1 usage/config, 2 data,
3 artifact, 4 numerical abort, 5 selfcheck failure. Each failed command but a
bare ``dualrec`` runs through ``fails``, which checks it against
``cli.FAILURES``: the exit code of its stderr prefix, one stderr line and no
traceback.
"""

import argparse
import hashlib
import os
import shutil
import struct
import subprocess
import sys
import warnings
import zipfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import dualrec
from dualrec import autodiff as ad
from dualrec import cli
from dualrec import experiments
from dualrec import synthetic
from dualrec import training as tr
from dualrec.config import RunConfig
from dualrec.training import NumericalAbortError
from faults import nan_gradient_backward

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


# the exit code of each stderr prefix, as cli.FAILURES maps it
CODES = {prefix: code for _, prefix, code in cli.FAILURES}


def fails(capsys, argv, prefix):
    """Run ``argv``, assert that it exits with the code ``cli.FAILURES`` gives
    ``prefix`` and one stderr line ``prefix: ...`` without a traceback, and
    return that line without its line end."""
    capsys.readouterr()
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == CODES[prefix], err
    assert err.count("\n") == 1 and err.endswith("\n") and err.startswith(prefix + ": "), err
    assert "Traceback" not in err
    return err[:-1]


def train_argv(data_dir, out, extra=()):
    return ["train", "--data", data_dir, "--out", out,
            "--k", "4", "--l", "1", "--epochs", "2", "--lr", "0.02", *extra]


def run_train(data_dir, out, extra=()):
    return cli.main(train_argv(data_dir, out, extra))


def eval_argv(data_dir, run_dir, out, *extra):
    """eval's argv on the model that ``train`` wrote to ``run_dir``."""
    return ["eval", "--data", data_dir, "--model", os.path.join(run_dir, "model.npz"),
            "--out", str(out), *extra]


@pytest.fixture()
def trained(tmp_path, data_dir):
    """The run directory of a model trained on ``data_dir``."""
    run_dir = str(tmp_path / "run")
    assert run_train(data_dir, run_dir) == cli.EXIT_OK
    return run_dir


def text_file(path, text):
    """``path`` as a string, once ``text`` is written to it."""
    path.write_text(text)
    return str(path)


def first_item(item):
    """An edit of a train file's lines that sets the first line's item to ``item``."""
    return lambda lines: [lines[0].split("\t")[0] + "\t" + item] + lines[1:]


def set_meta(key, value):
    """An edit of a meta file's lines that sets its ``key`` to ``value``."""
    def edit(lines):
        assert any(line.startswith(f"{key} = ") for line in lines)
        return [f"{key} = {value}" if line.startswith(f"{key} = ") else line for line in lines]
    return edit


def subcommand(name):
    (commands,) = (a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
    return commands.choices[name]


def rating_files(tmp_path):
    """Two small rating files that prepare accepts with --min-count 2."""
    for tag in ("a", "b"):
        lines = [f"user{u}\t{tag}{i}\t5" for u in range(8) for i in range(6)]
        (tmp_path / f"r_{tag}.tsv").write_text("\n".join(lines) + "\n")
    return ["--domain-a", str(tmp_path / "r_a.tsv"), "--domain-b", str(tmp_path / "r_b.tsv")]


class TestSynthAndPrepare:
    def test_synth_writes_complete_artifacts(self, data_dir):
        for domain in ("domain_a", "domain_b"):
            for name in ("train.tsv", "test.tsv", "candidates.tsv", "meta"):
                assert os.path.isfile(os.path.join(data_dir, domain, name))

    def test_synth_is_deterministic(self, tmp_path, spec_file):
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        for out in (out1, out2):
            assert cli.main(["synth", "--spec", spec_file, "--out", str(out),
                             "--candidates", "20"]) == 0
        for domain in ("domain_a", "domain_b"):
            for name in ("train.tsv", "test.tsv", "candidates.tsv"):
                assert (out1 / domain / name).read_text() == (out2 / domain / name).read_text()

    def test_synth_missing_spec_is_artifact_error(self, tmp_path, capsys):
        spec = str(tmp_path / "none.txt")
        err = fails(capsys, ["synth", "--spec", spec, "--out", str(tmp_path / "out")],
                    "artifact error")
        assert err == f"artifact error: spec file not found: {spec}"

    def test_spec_inline_comment(self, tmp_path, data_dir):
        spec = text_file(tmp_path / "commented.txt",
                         TINY_SPEC.replace("num_users = 40", "num_users = 40  # small"))
        out = str(tmp_path / "commented")
        assert cli.main(["synth", "--spec", spec, "--out", out,
                         "--candidates", "20"]) == cli.EXIT_OK
        for name in ARTIFACT_FILES:  # the same data as the spec without the comment
            assert Path(out, name).read_text() == Path(data_dir, name).read_text()

    def test_synth_bad_spec_is_usage_error(self, tmp_path, capsys):
        bad = text_file(tmp_path / "bad.txt", "num_users = 40\nwhatever = 3\n")
        err = fails(capsys, ["synth", "--spec", bad, "--out", str(tmp_path / "o")], "config error")
        assert err == "config error: line 2: unknown key 'whatever'"

    @pytest.mark.parametrize("line,bad", [
        ("shared_strength = 3.0", "shared_strength = nan"),
        ("specific_strength = 0.8", "specific_strength = inf"),
    ], ids=["shared-nan", "specific-inf"])
    def test_synth_non_finite_strength_is_usage_error(self, tmp_path, capsys, line, bad):
        spec = text_file(tmp_path / "spec.txt", TINY_SPEC.replace(line, bad))
        out = tmp_path / "out"
        err = fails(capsys, ["synth", "--spec", spec, "--out", str(out)], "config error")
        assert err == "config error: strengths must be finite and >= 0" and not out.exists()

    def test_synth_unreachable_rate_is_usage_error(self, tmp_path, capsys):
        spec = text_file(tmp_path / "spec.txt", "shared_strength = 100\nseed = 1\n")
        out = tmp_path / "out"
        err = fails(capsys, ["synth", "--spec", spec, "--out", str(out)], "config error")
        assert err.startswith("config error: domain a: rate_a = 0.025 is out of reach")
        assert not out.exists()

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

    def test_prepare_missing_input_is_data_error(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.tsv")
        err = fails(capsys, ["prepare", "--domain-a", missing, "--domain-b", missing,
                             "--out", str(tmp_path / "out")], "data error")
        assert err == f"data error: input ratings file not found: {missing}"

    def test_prepare_disjoint_users_is_data_error(self, tmp_path, capsys):
        for tag, prefix in (("a", "left"), ("b", "right")):
            lines = [f"{prefix}{u}\t{tag}{i}\t5" for u in range(8) for i in range(6)]
            (tmp_path / f"r_{tag}.tsv").write_text("\n".join(lines) + "\n")
        fails(capsys, ["prepare", "--domain-a", str(tmp_path / "r_a.tsv"),
                       "--domain-b", str(tmp_path / "r_b.tsv"), "--out", str(tmp_path / "out"),
                       "--min-count", "2", "--candidates", "2"], "data error")

    def test_prepare_empty_user_key_is_data_error(self, tmp_path, capsys):
        argv = ["prepare", *rating_files(tmp_path), "--out", str(tmp_path / "out")]
        with open(tmp_path / "r_a.tsv", "a") as fh:
            fh.write("\ta0\t5\n")
        err = fails(capsys, argv, "data error")
        assert err == f"data error: {tmp_path / 'r_a.tsv'}:49: empty user or item key"

    @pytest.mark.parametrize("argv,match", [
        (["prepare", "--min-count", "0"], "min_count must be >= 1"),
        (["synth", "--candidates", "-1"], "candidates must be >= 1"),
        (["synth", "--candidates", "0"], "candidates must be >= 1"),
    ], ids=["prepare-min-count-0", "synth-candidates-negative", "synth-candidates-0"])
    def test_bad_count_is_usage_error(self, tmp_path, spec_file, capsys, argv, match):
        if argv[0] == "prepare":
            argv = argv + rating_files(tmp_path)
        else:
            argv = argv + ["--spec", spec_file]
        out = tmp_path / "out"
        err = fails(capsys, argv + ["--out", str(out)], "config error")
        assert err == f"config error: {match}" and not out.exists()


SEED_ERROR = "config error: seed must be >= 0"


class TestNegativeSeed:
    """numpy rejects a negative seed entry; every way in says so in one line first."""

    def test_train_flag(self, tmp_path, data_dir, capsys):
        argv = ["train", "--data", data_dir, "--seed", "-1", "--out", str(tmp_path / "out")]
        assert fails(capsys, argv, "config error") == SEED_ERROR and not (tmp_path / "out").exists()

    def test_synth_flag(self, tmp_path, spec_file, capsys):
        argv = ["synth", "--spec", spec_file, "--seed", "-1", "--out", str(tmp_path / "out")]
        assert fails(capsys, argv, "config error") == SEED_ERROR and not (tmp_path / "out").exists()

    def test_spec_file(self, tmp_path, capsys):
        spec = text_file(tmp_path / "spec.txt", TINY_SPEC.replace("seed = 0", "seed = -2"))
        argv = ["synth", "--spec", spec, "--out", str(tmp_path / "out")]
        assert fails(capsys, argv, "config error") == SEED_ERROR and not (tmp_path / "out").exists()

    def test_prepare_flag(self, tmp_path, capsys):
        argv = ["prepare", *rating_files(tmp_path), "--min-count", "2", "--seed", "-1",
                "--out", str(tmp_path / "out")]
        assert fails(capsys, argv, "config error") == SEED_ERROR and not (tmp_path / "out").exists()


ARTIFACT_FILES = [
    os.path.join(domain, name)
    for domain in ("domain_a", "domain_b")
    for name in ("train.tsv", "test.tsv", "candidates.tsv", "meta")
]

# SHA-256 of each file in ARTIFACT_FILES, in that order, as the tuple-set
# storage wrote them; the array storage must write the same bytes.
PINNED_DIGESTS = {
    "synth-1": (
        "54ef7cd3ee420fff49716b8aee95ee5b0a300872cd6978f22730db9eb41a6d7a",
        "941e6e1ba9a1d5f1b14c86d013f243f5b26c57998cde2baccfd5d68571ba1137",
        "f4189f42380cab4237f93fd362a82907519712b01d676a64060f529c5b7eee79",
        "0220a409c2d464048dffb1ab908cd55080ce99a66581533e4d02b59ccc9bb323",
        "48c23ed0e0d591af497b2ce8739058204329cc5e70d039c19a44558242ddf126",
        "f271d0fa023d31656b93e577e016c49d9806c91486bea0d56cbbcb120f22a703",
        "0e9bf6793d5b61a718d18843418f65057a4c3e5b65cb34292425f00d914d3f0c",
        "046a20b01e1f022bdf32e5f81db007f414c66b2a9ed513f9dfad2fdd67d1f431",
    ),
    "synth-2": (
        "8684d685ad6746df890c01f058f0cd3845a1f2d7332dc4e47c8d8d60b79294b3",
        "09736c38ab1e605e21ff5f7141bc404e1a3eddb06840318d07333aadd43ad52e",
        "1e893cad548ac1872f37f2662e7b4ecbec0dfc87a274da068ba36b5ab9899141",
        "8f2b201a6e8126f4cfb693abe4eeeb74e9520c167190ab1045b18b093a55ffc9",
        "04955034deb04cf35fb1d2a0e304500e388fcfb54700a8f62eaad2d44754ac61",
        "fb172285dc67dbca6fa0b9f4c188a7dbdf85b5536e96bf511fd9ba2b607df0ae",
        "076edadd8cca5e376c511d2410424891d2406b27a0083370b67d7274afb66878",
        "088b84594a7372e71a75a5b2da43d62b0bbdc96fe11fb8163b9cabedf82dca26",
    ),
    "synth-3": (
        "58dd492388c17b996775295411dd1b915cc814b91c9ecb3820abc3aeb0bc4d31",
        "5f9f9a1c6bbbcefa9fdf2689f145e7159a8cc0bee08df322a578c4714e3bff02",
        "95d527274c50dbd1ee3856e50dbad5322b2d488f4f4b3eb0f3d6afb482224cf9",
        "486bc6e9c1a80f6c40151a8f1b8911101e8edcf26434b001dc867e7a1064086e",
        "33ed5a21c7ae7a7ab84ef417cb5525c7c3b2a5229e20c6a2ec752383ff3cdd71",
        "c0a8381ce65b02d81665de3287bb83aaad07d2097c53154ec2f705d2ea177444",
        "b502d1564da5b3f2ebce7f248703f42870be9398044615c1427ba69da8f7a903",
        "0c81103b822c9bf10744ec64ac0a5a65d60d29c3965494925b38ebd423936bc4",
    ),
    "prepare-timestamps": (
        "797645ed4d88fa6b6e402aa747ce218d6dba389771fbec9ef7abf162a1d3bdfc",
        "cfcca11a9c6bd4b281b12de11943be2b4e0c93cf1e6d6a56da86a6a7336880b8",
        "fb5fb32dbaac45e7c294d9f0654d33940bebe19424f05d3c883b3e61c7514f15",
        "5f870e3910b5b31a13999b0a0a90371334439a069fb3b53790f3103928736846",
        "36856f7a9dd2dc4424d7532bd641bb098317cc2d0f6473bf1c06b77e342245ac",
        "f84211b625eb20285331441f41ce2bbe794e3cec7db91bf82451234137ce32a0",
        "6b3707b30995a2162b84bff63812210b534a5f344b82dce1ad22196f08ac6f3d",
        "9d0e6a2df74b40dedac61ef78e8d2afdb03c6056b63dd0edcefd2dbd4accd9e7",
    ),
    "prepare-plain": (
        "b62f2f44f8af7fe16a7cfd640990c24cdc98263561b888a61444425c45f59a12",
        "38dcf83e59aef1f74ab32f4459c1cd0e0b3fb288cdea36217dfe1e7b979c3004",
        "fb5fb32dbaac45e7c294d9f0654d33940bebe19424f05d3c883b3e61c7514f15",
        "6c91a9c2c109e0f0f25755ed19c6895253031bc10a3b768822eba5a99f103e68",
        "c13d6e83f26af8c49cf9283180b643a6d1026f8f35e26071e6695c82ea9d3019",
        "4ba8b688c39c9e6e085390028dc8f0c35145ed9be44dc05c02c20fa145b10f87",
        "6b3707b30995a2162b84bff63812210b534a5f344b82dce1ad22196f08ac6f3d",
        "befba2b06334df7638364d68c5d91218419a3bd0a0ea4481681cf25320bca29f",
    ),
}


def pinned_rows(tag, num_users, num_items):
    """Rating rows with a repeated pair, a timestamp tie and a min-count cascade."""
    rows = []
    for u in range(num_users):
        for k in range(6 + u % 4):
            i = (7 * u + 13 * k) % num_items
            rows.append((f"user{u}", f"{tag}{i}", 1 + (u + k) % 5, 1000 + (37 * u + 61 * k) % 97))
    rows.append(rows[0][:3] + (5000,))  # user0's first pair again, now its latest record
    rows += [("user1", f"{tag}{num_items - j}", 4, 9000) for j in (1, 2)]
    # tail0 has 4 items and drops; "rare" then has 4 users and drops, and
    # with it tail1..tail4 fall to 4 items each
    for t in range(5):
        rows.append((f"tail{t}", f"{tag}rare", 3, 2000 + t))
        rows += [(f"tail{t}", f"{tag}{j}", 2, 2000) for j in range(3 + (t > 0))]
    return rows


@pytest.mark.pins
class TestArtifactBytes:
    """``synth`` and ``prepare`` write byte-for-byte the pinned artifacts."""

    def assert_pinned(self, out, case):
        got = tuple(
            hashlib.sha256(Path(out, name).read_bytes()).hexdigest()
            for name in ARTIFACT_FILES
        )
        for name, g, e in zip(ARTIFACT_FILES, got, PINNED_DIGESTS[case]):
            assert g == e, f"{case}: {name} changed"

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_synth_default_spec(self, tmp_path, seed):
        out = str(tmp_path / "data")
        assert cli.main(["synth", "--out", out, "--seed", str(seed)]) == cli.EXIT_OK
        self.assert_pinned(out, f"synth-{seed}")

    @pytest.mark.parametrize("case", ["prepare-timestamps", "prepare-plain"])
    def test_prepare(self, tmp_path, case):
        width = 4 if case == "prepare-timestamps" else 3
        for tag, num_users, num_items in (("a", 30, 30), ("b", 33, 25)):
            rows = pinned_rows(tag, num_users, num_items)
            (tmp_path / f"{tag}.tsv").write_text(
                "".join("\t".join(map(str, row[:width])) + "\n" for row in rows)
            )
        out = str(tmp_path / "data")
        assert cli.main([
            "prepare", "--domain-a", str(tmp_path / "a.tsv"),
            "--domain-b", str(tmp_path / "b.tsv"),
            "--out", out, "--candidates", "10", "--seed", "3",
        ]) == cli.EXIT_OK
        self.assert_pinned(out, case)


class TestBadArtifacts:
    """A corrupted artifact stops train and eval with exit 3 and one line."""

    def corrupt(self, data_dir, name, edit):
        path = Path(data_dir, "domain_a", name)
        path.write_text("".join(line + "\n" for line in edit(path.read_text().splitlines())))

    def edited_argv(self, command, tmp_path, data_dir, edits):
        """``command``'s argv on the data after ``edits``; for eval, a model trains first."""
        run_dir = str(tmp_path / "run")
        if command == "eval":
            assert run_train(data_dir, run_dir) == cli.EXIT_OK
        for name, edit in edits:
            self.corrupt(data_dir, name, edit)
        if command == "train":
            return train_argv(data_dir, run_dir)
        return eval_argv(data_dir, run_dir, tmp_path / "rep.txt")

    def test_train_item_out_of_range(self, tmp_path, data_dir, capsys):
        argv = self.edited_argv("train", tmp_path, data_dir, [("train.tsv", first_item("100000"))])
        assert "is outside" in fails(capsys, argv, "artifact error")

    @pytest.mark.parametrize("items,match", [
        (lambda old: ["5", "5", "5"], "has 3 candidates, expected 20"),
        (lambda old: [old[1]] + old[1:], "repeated candidate"),
    ])
    def test_candidate_line_rejected(self, tmp_path, data_dir, capsys, items, match):
        def edit(lines):
            u, old = lines[0].split("\t")
            return [f"{u}\t{','.join(items(old.split(',')))}"] + lines[1:]

        argv = self.edited_argv("train", tmp_path, data_dir, [("candidates.tsv", edit)])
        assert match in fails(capsys, argv, "artifact error")

    @pytest.mark.parametrize("names,match", [
        (("train.tsv",), "is on two lines"),
        (("test.tsv", "candidates.tsv"), "is on two lines"),
    ])
    def test_repeated_line_rejected(self, tmp_path, data_dir, capsys, names, match):
        edits = [(name, lambda lines: lines + lines[:1]) for name in names]
        argv = self.edited_argv("train", tmp_path, data_dir, edits)
        assert match in fails(capsys, argv, "artifact error")

    @pytest.mark.parametrize("number", ["99999999999999999999", "-99999999999999999999"])
    def test_number_outside_int64_rejected(self, tmp_path, data_dir, capsys, number):
        # numpy reads either sign as the int64 maximum, a number the file does not hold
        argv = self.edited_argv("train", tmp_path, data_dir, [("train.tsv", first_item(number))])
        assert "number outside the int64 range" in fails(capsys, argv, "artifact error")

    @pytest.mark.parametrize("key,value", [
        # num_users x num_items reaches 2**63, where a pair key overflows int64
        ("num_items", "9223372036854775807"),
        # candidates are int32 item indices
        ("num_items", "2147483648"),
        ("num_items", "0"),
        ("num_users", "-1"),
        # a candidate row is int32 wide, and holds at least one item
        ("n_candidates", "-1"),
        ("n_candidates", "0"),
        ("n_candidates", "2147483648"),
        ("n_candidates", str(10**30)),
    ])
    def test_meta_count_rejected(self, tmp_path, data_dir, capsys, key, value):
        argv = self.edited_argv("train", tmp_path, data_dir, [("meta", set_meta(key, value))])
        assert f"{key} = {value} " in fails(capsys, argv, "artifact error")

    @pytest.mark.parametrize("value", ["-1", str(10**30)])
    def test_n_candidates_out_of_range_without_test_users(self, tmp_path, data_dir, capsys,
                                                          value):
        # no candidate line states a count, so only the meta's count could size the rows
        edits = [("test.tsv", lambda lines: []), ("candidates.tsv", lambda lines: []),
                 ("meta", set_meta("n_candidates", value))]
        err = fails(capsys, self.edited_argv("eval", tmp_path, data_dir, edits), "artifact error")
        assert err.endswith(f"meta: n_candidates = {value} must be >= 1 and below 2**31")

    def test_meta_without_num_users(self, tmp_path, data_dir, capsys):
        edit = [("meta", lambda lines: [line for line in lines
                                        if not line.startswith("num_users = ")])]
        err = fails(capsys, self.edited_argv("train", tmp_path, data_dir, edit), "artifact error")
        assert err == ("artifact error: meta lacks usable num_users/num_items/n_candidates: "
                       "'num_users'")

    def test_domains_disagree_on_the_user_count(self, tmp_path, data_dir, capsys):
        other = tmp_path / "other"
        spec = text_file(tmp_path / "s.txt", TINY_SPEC.replace("num_users = 40", "num_users = 30"))
        assert cli.main(["synth", "--spec", spec, "--out", str(other),
                         "--candidates", "20"]) == cli.EXIT_OK
        shutil.copytree(other / "domain_b", Path(data_dir, "domain_b"), dirs_exist_ok=True)
        err = fails(capsys, train_argv(data_dir, str(tmp_path / "run")), "artifact error")
        assert err == "artifact error: domain artifacts disagree on the aligned user count"

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("name,edit", [
        # a users x items table this wide would not fit in memory
        ("meta", set_meta("num_users", "1000000000000000")),
        ("train.tsv", lambda lines: []),
    ], ids=["huge_meta_num_users", "empty_train"])
    def test_num_users_must_match_train(self, tmp_path, data_dir, capsys, command, name, edit):
        argv = self.edited_argv(command, tmp_path, data_dir, [(name, edit)])
        assert "num_users = " in fails(capsys, argv, "artifact error")

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("edits,match", [
        # no train line names most of these items, yet each sizes the tables
        ([("meta", set_meta("num_items", "2000000000"))], "num_items = 2000000000 "),
        # one train line spans 10**15 users that keep no train pair
        ([("train.tsv", lambda lines: lines + ["1000000000000000\t0"]),
          ("meta", set_meta("num_users", "1000000000000001"))], "num_users = 1000000000000001 "),
    ], ids=["huge_meta_num_items", "huge_train_user"])
    def test_meta_count_beyond_train_lines(self, tmp_path, data_dir, capsys, command, edits,
                                           match):
        argv = self.edited_argv(command, tmp_path, data_dir, edits)
        assert match in fails(capsys, argv, "artifact error")

    def test_eval_rejects_bad_candidates(self, tmp_path, data_dir, capsys):
        argv = self.edited_argv("eval", tmp_path, data_dir,
                                [("candidates.tsv", lambda lines: lines[1:])])
        fails(capsys, argv, "artifact error")


class TestNonUtf8Input:
    """A byte that is not UTF-8 in a text input ends the run with its code and one line."""

    @pytest.mark.parametrize("target, code, prefix", [
        ("train.tsv", cli.EXIT_ARTIFACT, "artifact error: "),
        ("meta", cli.EXIT_ARTIFACT, "artifact error: "),
        ("config", cli.EXIT_USAGE, "config error: "),
        ("spec", cli.EXIT_USAGE, "config error: "),
        ("ratings", cli.EXIT_DATA, "data error: "),
    ])
    def test_one_line(self, tmp_path, data_dir, spec_file, capsys, target, code, prefix):
        out = str(tmp_path / "out")
        train = ["train", "--data", data_dir, "--out", out, "--k", "4", "--epochs", "1"]
        if target in ("train.tsv", "meta"):
            path, argv = os.path.join(data_dir, "domain_a", target), train
        elif target == "config":
            path = str(tmp_path / "run.cfg")
            argv = train + ["--config", path]
        elif target == "spec":
            path, argv = spec_file, ["synth", "--spec", spec_file, "--out", out]
        else:
            argv = ["prepare", *rating_files(tmp_path), "--out", out, "--min-count", "2"]
            path = str(tmp_path / "r_a.tsv")
        with open(path, "ab") as fh:
            fh.write(b"\xff\n")
        prefix = prefix.removesuffix(": ")
        assert code == CODES[prefix]  # the ids name each input's exit code
        assert f"{path}: not UTF-8 text" in fails(capsys, argv, prefix)


class TestBadModelFiles:
    """A malformed model file stops eval with exit 3 and one line, and no report."""

    def eval_edited_model(self, data_dir, trained, edit, save=np.savez):
        """eval's argv, to write ``rep.txt``, on the trained model after ``save``
        wrote ``edit`` of its arrays."""
        path = os.path.join(trained, "model.npz")
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        edit(arrays)
        save(path, **arrays)
        return eval_argv(data_dir, trained, Path(trained).parent / "rep.txt")

    def test_invalid_config_record(self, tmp_path, data_dir, trained, capsys):
        def edit(arrays):
            lines = [line for line in arrays["__config__"] if not line.startswith("variant")]
            arrays["__config__"] = np.array(lines + ["variant = bogus"])

        err = fails(capsys, self.eval_edited_model(data_dir, trained, edit), "artifact error")
        assert "bad config record" in err and "bogus" in err
        assert not (tmp_path / "rep.txt").exists()

    def test_negative_seed_in_config_record(self, tmp_path, data_dir, trained, capsys):
        def edit(arrays):
            lines = [line for line in arrays["__config__"] if not line.startswith("seed")]
            arrays["__config__"] = np.array(lines + ["seed = -1"])

        err = fails(capsys, self.eval_edited_model(data_dir, trained, edit), "artifact error")
        assert "bad config record" in err and "seed must be >= 0" in err
        assert not (tmp_path / "rep.txt").exists()

    def test_non_numeric_parameter(self, tmp_path, data_dir, trained, capsys):
        def edit(arrays):
            arrays["tow_a.item.1"] = np.full(arrays["tow_a.item.1"].shape, "x")

        err = fails(capsys, self.eval_edited_model(data_dir, trained, edit), "artifact error")
        assert "tow_a.item.1" in err and not (tmp_path / "rep.txt").exists()

    def test_nan_parameter(self, tmp_path, data_dir, trained, capsys):
        def edit(arrays):
            arrays["tow_a.item.1"][0, 0] = np.nan

        err = fails(capsys, self.eval_edited_model(data_dir, trained, edit), "artifact error")
        assert "tow_a.item.1 holds non-finite values" in err
        assert not (tmp_path / "rep.txt").exists()

    @pytest.mark.parametrize("tower", ["user", "item"])
    def test_finite_weights_that_overflow_a_norm(self, tmp_path, data_dir, trained, capsys,
                                                 tower):
        # every value stays finite, but a representation's norm overflows to inf
        def edit(arrays):
            for tag in ("a", "b"):
                arrays[f"tow_{tag}.{tower}.1"] *= 1e300

        argv = self.eval_edited_model(data_dir, trained, edit)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # a warning would print lines of its own
            err = fails(capsys, argv, "artifact error")
        assert [str(w.message) for w in caught] == []
        assert os.path.join(trained, "model.npz") in err
        assert f"a {tower} representation has a non-finite norm" in err
        assert not (tmp_path / "rep.txt").exists()

    @pytest.mark.parametrize("save,offset,change,match", [
        # a stored member's changed byte fails its CRC-32
        (np.savez, -1, lambda byte: byte ^ 0xFF, "Bad CRC-32 for file 'tow_a.user.1.npy'"),
        # a deflated member whose first block has the reserved type 11 fails in zlib
        (np.savez_compressed, 0, lambda byte: byte | 0b110, "while decompressing data"),
    ], ids=["stored", "deflated"])
    def test_corrupt_member_bytes(self, tmp_path, data_dir, trained, capsys, save, offset,
                                  change, match):
        argv = self.eval_edited_model(data_dir, trained, lambda arrays: None, save)
        path = Path(trained, "model.npz")
        with zipfile.ZipFile(path) as archive:
            info = archive.getinfo("tow_a.user.1.npy")
        raw = bytearray(path.read_bytes())
        # a member's bytes follow its 30-byte local header, its name and its extra field
        name_len, extra_len = struct.unpack_from("<HH", raw, info.header_offset + 26)
        at = info.header_offset + 30 + name_len + extra_len + offset % info.compress_size
        raw[at] = change(raw[at])
        path.write_bytes(raw)
        err = fails(capsys, argv, "artifact error")
        assert f"unreadable model file {path}: " in err and match in err

    def test_member_without_npy_magic(self, tmp_path, data_dir, trained, capsys):
        # numpy hands such a member back as raw bytes
        path = Path(trained, "model.npz")
        with zipfile.ZipFile(path) as archive:
            members = {name: archive.read(name) for name in archive.namelist()}
        with zipfile.ZipFile(path, "w") as archive:
            for name, data in members.items():  # one member loses its .npy magic
                archive.writestr(name, b"NOTNPY" + data[6:] if name == "tow_a.user.1.npy" else data)
        err = fails(capsys, eval_argv(data_dir, trained, tmp_path / "rep.txt"), "artifact error")
        assert "artifact error: parameter tow_a.user.1 is not a real array: " in err


class TestTrainEval:
    def test_train_then_eval(self, tmp_path, data_dir):
        run_dir = str(tmp_path / "run")
        assert run_train(data_dir, run_dir) == cli.EXIT_OK
        assert os.path.isfile(os.path.join(run_dir, "model.npz"))
        log = Path(run_dir, "train.log").read_text().splitlines()
        assert log[0].startswith("epoch\tloss_total")
        assert len(log) == 1 + 2

        assert cli.main(eval_argv(data_dir, run_dir, tmp_path / "report.txt")) == cli.EXIT_OK
        text = (tmp_path / "report.txt").read_text()
        assert "hr_a = " in text and "ranks_b = " in text

    def test_train_is_deterministic(self, tmp_path, data_dir):
        r1, r2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        assert run_train(data_dir, r1) == 0
        assert run_train(data_dir, r2) == 0
        with np.load(os.path.join(r1, "model.npz")) as m1, \
                np.load(os.path.join(r2, "model.npz")) as m2:
            assert sorted(m1.files) == sorted(m2.files)
            for name in m1.files:
                np.testing.assert_array_equal(m1[name], m2[name])
        assert Path(r1, "train.log").read_text() == Path(r2, "train.log").read_text()

    def test_eval_threads_do_not_change_metrics(self, tmp_path, data_dir, trained):
        reports = []
        for threads, name in ((1, "t1.txt"), (5, "t5.txt")):
            path = tmp_path / name
            assert cli.main(eval_argv(data_dir, trained, path, "--threads", str(threads))) == 0
            keep = [line for line in path.read_text().splitlines()
                    if not line.startswith(("wallclock_s", "config.eval_threads"))]
            reports.append(keep)
        assert reports[0] == reports[1]

    def test_eval_missing_model_is_artifact_error(self, tmp_path, data_dir, capsys):
        model = str(tmp_path / "none.npz")
        err = fails(capsys, ["eval", "--data", data_dir, "--model", model,
                             "--out", str(tmp_path / "rep.txt")], "artifact error")
        assert err == f"artifact error: model file not found: {model}"

    def test_train_sets_both_malloc_thresholds(self, tmp_path, data_dir, monkeypatch):
        calls = []
        monkeypatch.setattr(tr, "_mallopt", lambda param, value: calls.append((param, value)))
        assert run_train(data_dir, str(tmp_path / "run")) == cli.EXIT_OK
        assert calls == [(-3, 32 << 20), (-1, 1 << 30)]

    def test_keep_freed_heap_without_mallopt_sets_nothing(self, monkeypatch):
        monkeypatch.setattr(tr, "_mallopt", None)
        tr.keep_freed_heap()

    def test_train_missing_data_is_artifact_error(self, tmp_path, capsys):
        argv = train_argv(str(tmp_path / "nowhere"), str(tmp_path / "run"))
        assert "missing artifact file: " in fails(capsys, argv, "artifact error")

    def test_bad_config_value_is_usage_error(self, tmp_path, data_dir, capsys):
        argv = ["train", "--data", data_dir, "--out", str(tmp_path / "run"), "--k", "0"]
        assert fails(capsys, argv, "config error") == "config error: k and l must be >= 1"

    @pytest.mark.parametrize("line", [
        "mixup_alpha = nan", "lr = inf", "init_std = -1",
        # each RunConfig.validate rule, and a switch that is not a boolean
        "mixup_alpha = 0", "neg_ratio = 0", "eval_negatives = 9", "gamma = -1", "lr = 0",
        "alternating = maybe",
    ])
    def test_bad_config_file_value_is_one_line(self, tmp_path, data_dir, capsys, line):
        cfg = text_file(tmp_path / "run.cfg", line + "\n")
        argv = ["train", "--data", data_dir, "--out", str(tmp_path / "run"), "--config", cfg]
        assert line.split(" =")[0] in fails(capsys, argv, "config error")

    def test_config_file_and_override(self, tmp_path, data_dir):
        cfg = text_file(tmp_path / "run.cfg", "k = 4\nl = 1\nepochs = 1\nlr = 0.02\nvariant = base")
        run_dir = str(tmp_path / "run")
        code = cli.main(["train", "--data", data_dir, "--out", run_dir,
                         "--config", cfg, "--epochs", "2"])
        assert code == cli.EXIT_OK
        log = Path(run_dir, "train.log").read_text().splitlines()
        assert len(log) == 1 + 2  # flag overrides the file value

    def test_numerical_abort_maps_to_exit_4(self, tmp_path, data_dir, monkeypatch, capsys):
        def explode(*args, **kwargs):
            raise NumericalAbortError("non-finite training loss at epoch 0 step 0",
                                      {"epoch": 0, "step": 0})
        monkeypatch.setattr(cli, "train_model", explode)
        err = fails(capsys, train_argv(data_dir, str(tmp_path / "run")), "numerical abort")
        assert err == "numerical abort: non-finite training loss at epoch 0 step 0"

    def test_non_finite_gradient_exits_4_without_a_model(self, tmp_path, data_dir,
                                                         monkeypatch, capsys):
        monkeypatch.setattr(ad, "backward", nan_gradient_backward)
        run_dir = str(tmp_path / "run")
        # one epoch of one step, so the poisoned sweep is the last one
        extra = ("--epochs", "1", "--batch-size", "65536")
        err = fails(capsys, train_argv(data_dir, run_dir, extra), "numerical abort")
        assert err.startswith("numerical abort: non-finite training gradient")
        assert not os.path.exists(os.path.join(run_dir, "model.npz"))

    def test_overflow_exits_4_with_one_line(self, tmp_path, data_dir, capsys):
        run_dir = str(tmp_path / "run")
        cfg = text_file(tmp_path / "run.cfg", "init_std = 1e300\n")
        argv = train_argv(data_dir, run_dir, ("--config", cfg, "--epochs", "1"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # a warning would print lines of its own
            fails(capsys, argv, "numerical abort")
        assert [str(w.message) for w in caught] == []
        assert not os.path.exists(os.path.join(run_dir, "model.npz"))

    def test_abort_leaves_no_run_directory(self, tmp_path, data_dir, capsys):
        cfg = text_file(tmp_path / "run.cfg", "init_std = 1e300\n")
        run_dir = tmp_path / "run_abort"
        fails(capsys, train_argv(data_dir, str(run_dir), ("--config", cfg, "--epochs", "1")),
              "numerical abort")
        assert not run_dir.exists()

    def test_eval_top_k_above_the_candidates_is_one_line_data_error(self, tmp_path, data_dir,
                                                                    spec_file, capsys):
        # 20 candidates: ranks run 1..21, so top_k = 21 would make every rank a hit.
        # The model trains on the same split frozen with 25 candidates, where
        # top_k = 21 is valid.
        wide = str(tmp_path / "wide")
        assert cli.main(["synth", "--spec", spec_file, "--out", wide, "--candidates", "25"]) == 0
        cfg = text_file(tmp_path / "run.cfg", "top_k = 21\n")
        run_dir = str(tmp_path / "run")
        assert run_train(wide, run_dir, ("--config", cfg)) == cli.EXIT_OK
        report = tmp_path / "rep.txt"
        err = fails(capsys, eval_argv(data_dir, run_dir, report), "data error")
        assert err == "data error: top_k = 21 exceeds the 20 candidates per test user"
        assert not report.exists()

    def test_train_top_k_above_the_candidates_trains_nothing(self, tmp_path, data_dir,
                                                             capsys, monkeypatch):
        cfg = text_file(tmp_path / "run.cfg", "top_k = 21\n")
        run_dir = tmp_path / "run"
        trained = []
        monkeypatch.setattr(cli, "train_model", lambda *args: trained.append(args))
        err = fails(capsys, train_argv(data_dir, str(run_dir), ("--config", cfg)), "data error")
        assert err == "data error: top_k = 21 exceeds the 20 candidates per test user"
        assert trained == [] and not run_dir.exists()

    def test_eval_threads_below_one_is_one_line_usage_error(self, tmp_path, data_dir, trained,
                                                            capsys):
        report = tmp_path / "rep.txt"
        argv = eval_argv(data_dir, trained, report, "--threads", "0")
        assert "eval_threads" in fails(capsys, argv, "config error") and not report.exists()


class TestAblateSweep:
    def test_ablate_writes_full_table(self, tmp_path, data_dir):
        out = str(tmp_path / "ablation.tsv")
        code = cli.main(["ablate", "--data", data_dir, "--out", out,
                         "--k", "4", "--l", "1", "--epochs", "1"])
        assert code == cli.EXIT_OK
        lines = Path(out).read_text().strip().split("\n")
        assert lines[0] == "variant\thr_a\tndcg_a\thr_b\tndcg_b"
        assert len(lines) == 1 + 8

    def test_ablate_rejects_variant_flag(self, tmp_path, data_dir, capsys):
        # ablate trains every variant, so a --variant would change nothing
        out = tmp_path / "ablation.tsv"
        fails(capsys, ["ablate", "--data", data_dir, "--out", str(out), "--variant", "base"],
              "usage error")
        assert not out.exists()

    def test_ablate_top_k_above_the_candidates_trains_nothing(self, tmp_path, data_dir,
                                                              capsys, monkeypatch):
        cfg = text_file(tmp_path / "run.cfg", "top_k = 21\n")
        out = tmp_path / "ablation.tsv"
        trained = []
        monkeypatch.setattr(experiments, "train_model", lambda *args: trained.append(args))
        argv = ["ablate", "--data", data_dir, "--out", str(out), "--config", cfg]
        err = fails(capsys, argv, "data error")
        assert err == "data error: top_k = 21 exceeds the 20 candidates per test user"
        assert trained == [] and not out.exists()

    def test_sweep_grid(self, tmp_path, data_dir):
        out = str(tmp_path / "sweep.tsv")
        code = cli.main(["sweep", "--data", data_dir, "--param", "lr",
                         "--grid", "0.01,0.02", "--out", out,
                         "--k", "4", "--l", "1", "--epochs", "1"])
        assert code == cli.EXIT_OK
        lines = Path(out).read_text().strip().split("\n")
        assert lines[0].startswith("lr\t")
        assert len(lines) == 3

    @pytest.mark.parametrize("grid", ["abc", "0.01,nan"])
    def test_sweep_bad_grid_value_is_usage_error(self, tmp_path, data_dir, capsys, grid):
        out = tmp_path / "s.tsv"
        fails(capsys, ["sweep", "--data", data_dir, "--param", "lr", "--grid", grid,
                       "--out", str(out)], "config error")
        assert not out.exists()

    @pytest.mark.parametrize("source", ["config", "flag", "grid"])
    def test_fractional_l_rejected_everywhere(self, tmp_path, data_dir, capsys, source):
        cfg = text_file(tmp_path / "run.cfg", "l = 2.0\n")
        out = tmp_path / "out"
        # argparse reads the flag, so its refusal is a usage error
        argv, prefix = {
            "config": (["train", "--data", data_dir, "--config", cfg], "config error"),
            "flag": (["train", "--data", data_dir, "--l", "2.0"], "usage error"),
            "grid": (["sweep", "--data", data_dir, "--param", "l", "--grid", "2.0"],
                     "config error"),
        }[source]
        err = fails(capsys, argv + ["--out", str(out), "--k", "4", "--epochs", "1"], prefix)
        assert "'2.0'" in err
        assert not out.exists()

    def test_sweep_bad_param_is_usage_error(self, tmp_path, data_dir, capsys):
        argv = ["sweep", "--data", data_dir, "--param", "k", "--grid", "4",
                "--out", str(tmp_path / "s.tsv")]
        assert "unknown sweep parameter 'k'" in fails(capsys, argv, "config error")


class TestOsAndMemoryErrors:
    """An output that cannot be written or an allocation that cannot be met
    exits 1 with one line and leaves no temp file; a missing ``--out``
    directory, or a file where the ``--out`` directory of ``train``, ``synth``
    or ``prepare`` would go, is found before any model trains or any data is
    generated or read."""

    @pytest.mark.parametrize("command", ["ablate", "sweep"])
    def test_missing_out_directory_trains_nothing(self, tmp_path, data_dir, capsys,
                                                   monkeypatch, command):
        trained = []
        monkeypatch.setattr(experiments, "train_model", lambda *args: trained.append(args))
        grid = ["--param", "lr", "--grid", "0.01"] if command == "sweep" else []
        out = tmp_path / "missing" / "table.tsv"
        fails(capsys, [command, "--data", data_dir, "--out", str(out), *grid], "os error")
        assert trained == [] and not out.parent.exists()

    def test_eval_missing_out_directory(self, tmp_path, data_dir, trained, capsys):
        fails(capsys, eval_argv(data_dir, trained, tmp_path / "missing" / "report.txt"),
              "os error")

    @pytest.mark.parametrize("out", ["file", "file/run/sub"])
    def test_train_out_at_or_below_a_file_trains_nothing(self, tmp_path, data_dir, capsys,
                                                         monkeypatch, out):
        trained = []
        monkeypatch.setattr(cli, "train_model", lambda *args: trained.append(args))
        (tmp_path / "file").write_text("")
        fails(capsys, ["train", "--data", data_dir, "--out", str(tmp_path / out)], "os error")
        assert trained == [] and (tmp_path / "file").read_text() == ""

    def test_eval_out_at_a_directory_leaves_no_temp_file(self, tmp_path, data_dir, trained,
                                                         capsys):
        out = tmp_path / "rep"
        out.mkdir()
        fails(capsys, eval_argv(data_dir, trained, out), "os error")
        assert not (tmp_path / "rep.tmp").exists() and out.is_dir()

    def test_synth_out_below_a_file(self, tmp_path, spec_file, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        fails(capsys, ["synth", "--spec", spec_file, "--out", str(blocker / "x"),
                       "--candidates", "20"], "os error")

    def test_synth_out_below_a_file_generates_nothing(self, tmp_path, spec_file, capsys,
                                                      monkeypatch):
        generated = []
        monkeypatch.setattr(synthetic, "generate_synthetic", lambda *a: generated.append(a))
        (tmp_path / "file").write_text("")
        fails(capsys, ["synth", "--spec", spec_file, "--out", str(tmp_path / "file" / "x")],
              "os error")
        assert generated == [] and (tmp_path / "file").read_text() == ""

    @pytest.mark.parametrize("out", ["file", "file/x"])
    def test_prepare_out_at_or_below_a_file_reads_nothing(self, tmp_path, capsys, monkeypatch,
                                                          out):
        read = []
        monkeypatch.setattr(cli, "prepare_datasets", lambda *a, **kw: read.append(a))
        (tmp_path / "file").write_text("")
        fails(capsys, ["prepare", *rating_files(tmp_path), "--min-count", "2",
                       "--out", str(tmp_path / out)], "os error")
        assert read == [] and (tmp_path / "file").read_text() == ""

    def test_synth_allocation_beyond_any_address_space(self, tmp_path, capsys):
        # 10**16 users x 8 latent floats is 640 PB: no allocator can meet it
        spec = text_file(tmp_path / "spec.txt", "num_users = 10000000000000000\n")
        fails(capsys, ["synth", "--spec", spec, "--out", str(tmp_path / "o")], "out of memory")
        assert not (tmp_path / "o").exists()


# a value for each train option that sets a RunConfig field; None marks a switch
TRAIN_FLAG_VALUES = {
    "seed": "5", "epochs": "1", "k": "3", "l": "2", "lr": "0.05",
    "batch_size": "64", "variant": "base", "fusion": "sum", "alternating": None,
}


class TestFlagFields:
    """A flag sets the field its dest names, so a misspelt dest would be dropped silently."""

    def test_train_option_dests_are_config_fields(self):
        dests = {a.dest for a in subcommand("train")._actions if a.option_strings}
        dests -= {"help", "config", "data", "out"}
        assert dests == set(TRAIN_FLAG_VALUES)
        assert dests <= {f.name for f in fields(RunConfig)}

    @pytest.mark.parametrize("dest", sorted(TRAIN_FLAG_VALUES))
    def test_train_flag_reaches_model_record(self, tmp_path, data_dir, dest):
        (action,) = (a for a in subcommand("train")._actions if a.dest == dest)
        value = TRAIN_FLAG_VALUES[dest]
        flag = (action.option_strings[0],) + (() if value is None else (value,))
        run_dir = tmp_path / "run"
        assert run_train(data_dir, str(run_dir), flag) == cli.EXIT_OK
        with np.load(run_dir / "model.npz") as archive:
            record = archive["__config__"].tolist()
        assert f"{dest} = {'True' if value is None else value}" in record

    def test_eval_threads_flag_sets_config(self, tmp_path, data_dir, trained):
        report = tmp_path / "rep.txt"
        assert cli.main(eval_argv(data_dir, trained, report, "--threads", "3")) == cli.EXIT_OK
        assert "config.eval_threads = 3" in report.read_text().splitlines()

    def test_synth_seed_flag_sets_spec(self, tmp_path, spec_file):
        out = tmp_path / "data"
        assert cli.main(["synth", "--spec", spec_file, "--out", str(out),
                         "--candidates", "20", "--seed", "5"]) == cli.EXIT_OK
        for domain in ("domain_a", "domain_b"):
            assert "seed = 5" in (out / domain / "meta").read_text().splitlines()


class TestUsageAndSelfcheck:
    def test_no_command_is_usage_error(self, capsys):
        assert cli.main([]) == cli.EXIT_USAGE

    def test_unknown_command_is_usage_error(self, capsys):
        assert "invalid choice: 'frobnicate'" in fails(capsys, ["frobnicate"], "usage error")

    def test_missing_required_flag_is_usage_error(self, capsys):
        err = fails(capsys, ["train", "--out", "x"], "usage error")
        assert err == "usage error: the following arguments are required: --data"

    def test_selfcheck_passes(self, selfcheck_run):
        code, seconds, lines = selfcheck_run
        assert code == cli.EXIT_OK
        assert seconds < 5.0  # the budget of its Beta moment check
        assert [line.split(":")[0] for line in lines] == [
            "ok   gradients", "ok   mixing_moments", "ok   ranking_metrics", "ok   adjacency",
            "selfcheck passed",
        ]

    def test_selfcheck_fault_injection_fails(self, faulty_selfcheck_run):
        # faulty_matmul, bound by the conftest fixture
        code, _, lines = faulty_selfcheck_run
        assert code == cli.EXIT_SELFCHECK
        assert len(lines) == 5 and lines[0].startswith("FAIL gradients:")
        assert lines[-1] == "selfcheck FAILED"

    def test_selfcheck_has_no_fault_flag(self, capsys):
        fails(capsys, ["selfcheck", "--inject-gradient-fault"], "usage error")


class TestFailureTable:
    def test_each_prefix_exits_with_its_documented_code(self):
        # the README's exit-code table, which ``fails`` reads through cli.FAILURES
        assert CODES == {"usage error": 1, "config error": 1, "os error": 1, "out of memory": 1,
                         "data error": 2, "artifact error": 3, "numerical abort": 4}


class TestImports:
    def test_cli_import_leaves_scipy_special_unloaded(self):
        # only `synth` calls scipy.special; every other command starts without it
        code = "import sys, dualrec.cli; print('scipy.special' in sys.modules)"
        src = os.path.dirname(os.path.dirname(dualrec.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"
