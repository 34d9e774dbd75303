"""Tests for model assembly, the forward pass, pair scoring, and persistence.

Initial parameters and save/load are checked bitwise; scoring is checked
against an independent numpy cosine on the evaluation-path representations.
"""

import dataclasses
import functools
import hashlib

import numpy as np
import pytest

from dualrec import autodiff as ad
from dualrec import fusion as fu
from dualrec import graph as gr
from dualrec import model as md
from dualrec.config import FUSIONS, VARIANTS, ConfigError, RunConfig
from dualrec.data import ArtifactError
from dualrec.evaluation import model_representations
from dualrec.graph import build_bipartite_adjacency
from dualrec.training import _noise_rngs
from toy import make_set, toy_adjacencies


config = functools.partial(RunConfig, k=3, l=2, epochs=1, lr=0.01, batch_size=8,
                           eval_negatives=10, seed=0, init_std=0.3)


# sha256 over the sorted (name, shape, bytes) of each build's initial
# parameters, recorded before every weight was drawn through ad.Params
INITIAL_DIGESTS = {
    ("full", "concat"): "ba8d5d9ede14bfdf6a8b944a7dce3a06bc80e069fad504cd920a20c343289273",
    ("full", "sum"): "13888bb7f7f71bad12d4fd93cdbf6c591224032de19b7d317384b68e3835acde",
    ("full", "attention"): "84315d5f62b84cddef4760729f08f7c5af03b93c3fadba55cd223cc09ef57f93",
    ("fixed_lambda", "concat"): "ba8d5d9ede14bfdf6a8b944a7dce3a06bc80e069fad504cd920a20c343289273",
    ("fixed_lambda", "sum"): "13888bb7f7f71bad12d4fd93cdbf6c591224032de19b7d317384b68e3835acde",
    ("fixed_lambda", "attention"): "84315d5f62b84cddef4760729f08f7c5af03b93c3fadba55cd223cc09ef57f93",
    ("base", "concat"): "2ee873c0e36d5dce478c8bcf14653bbf2a4d10680524b0c16446c11a9a93ac25",
    ("base", "sum"): "2ee873c0e36d5dce478c8bcf14653bbf2a4d10680524b0c16446c11a9a93ac25",
    ("base", "attention"): "2ee873c0e36d5dce478c8bcf14653bbf2a4d10680524b0c16446c11a9a93ac25",
    ("elbo", "concat"): "a97d07f3e5698a0cee4859f88ae9650d41dd47317add62d8051842d303363274",
    ("elbo", "sum"): "f5fbd822d16a0c4ffae1b8163212c180a964ae25f3a130357395ed4ca8af3cc4",
    ("elbo", "attention"): "bd7718bd630dc6b8c985ef9f4e66a259f206359f6d16acaba4b6e4f4f090ce9d",
    ("wo_sha", "concat"): "62e9c3a388ff44307d17e1f555169e648796124caec69ceff8e4850d39b065f4",
    ("wo_sha", "sum"): "13888bb7f7f71bad12d4fd93cdbf6c591224032de19b7d317384b68e3835acde",
    ("wo_sha", "attention"): "fbfa732af5b5a40433233bb61922f51ebeaed0bff4151f69f271cf281c7b7c99",
    ("wo_spe", "concat"): "62e9c3a388ff44307d17e1f555169e648796124caec69ceff8e4850d39b065f4",
    ("wo_spe", "sum"): "13888bb7f7f71bad12d4fd93cdbf6c591224032de19b7d317384b68e3835acde",
    ("wo_spe", "attention"): "fbfa732af5b5a40433233bb61922f51ebeaed0bff4151f69f271cf281c7b7c99",
    ("wo_ind", "concat"): "62e9c3a388ff44307d17e1f555169e648796124caec69ceff8e4850d39b065f4",
    ("wo_ind", "sum"): "13888bb7f7f71bad12d4fd93cdbf6c591224032de19b7d317384b68e3835acde",
    ("wo_ind", "attention"): "fbfa732af5b5a40433233bb61922f51ebeaed0bff4151f69f271cf281c7b7c99",
    ("transfer_ind", "concat"): "a8ca2a79191bc3857929df797b70b76e31c06c62b89f30b69a0ca41b1443ea5f",
    ("transfer_ind", "sum"): "13888bb7f7f71bad12d4fd93cdbf6c591224032de19b7d317384b68e3835acde",
    ("transfer_ind", "attention"): "5c71fbe874577a87db54c532388f2adea2bf0056d346b527c134d0cde91a88a7",
}


def params_digest(params) -> str:
    h = hashlib.sha256()
    for name in sorted(params):
        data = params[name].data
        h.update(name.encode())
        h.update(repr(data.shape).encode())
        h.update(data.tobytes())
    return h.hexdigest()


class TestBuildModel:
    def test_census_deterministic(self):
        adj_a, adj_b = toy_adjacencies()
        m1 = md.build_model(adj_a, adj_b, config())
        m2 = md.build_model(adj_a, adj_b, config())
        assert list(m1.params) == list(m2.params)
        for name in m1.params:
            np.testing.assert_array_equal(m1.params[name].data, m2.params[name].data)
        with pytest.raises(ad.ContractError, match="gcn_a.e0"):
            m1.params.new("gcn_a.e0", (1, 1))

    @pytest.mark.pins
    @pytest.mark.parametrize("fusion", FUSIONS)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_initial_parameters_pinned(self, variant, fusion):
        adj_a, adj_b = toy_adjacencies()
        m = md.build_model(adj_a, adj_b, config(variant=variant, fusion=fusion))
        assert params_digest(m.params) == INITIAL_DIGESTS[variant, fusion]

    @pytest.mark.parametrize("fusion", FUSIONS)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_name_prefixes_per_variant_and_fusion(self, variant, fusion):
        adj_a, adj_b = toy_adjacencies()
        m = md.build_model(adj_a, adj_b, config(variant=variant, fusion=fusion))
        fuses = variant != "base" and fusion == "attention"
        expected = []
        for tag in ("a", "b"):
            expected += [f"gcn_{tag}"] + [f"fus_{tag}"] * fuses + [f"tow_{tag}"]
        if variant != "base":
            expected += ["enc_a", "enc_b", "enc_aug", "clf"]
        if variant == "elbo":
            expected += ["dec_a", "dec_b", "dec_aug"]
        # first name segments in draw order
        assert list(dict.fromkeys(name.split(".")[0] for name in m.params)) == expected
        towers = {name.rsplit(".", 1)[0] for name in m.params if name.startswith("tow_")}
        assert towers == {"tow_a.user", "tow_a.item", "tow_b.user", "tow_b.item"}

    def test_base_variant_has_no_encoders(self):
        adj_a, adj_b = toy_adjacencies()
        m = md.build_model(adj_a, adj_b, config(variant="base"))
        assert not any(name.startswith(("enc_", "clf", "dec_", "fus_")) for name in m.params)

    def test_fusion_weights_only_for_attention(self):
        adj_a, adj_b = toy_adjacencies()
        att = md.build_model(adj_a, adj_b, config(fusion="attention"))
        cat = md.build_model(adj_a, adj_b, config(fusion="concat"))
        assert {n for n in att.params if n.startswith("fus_a.")} == {
            "fus_a.c0", "fus_a.c1", "fus_a.c2", "fus_a.ws"}
        assert att.params["fus_a.ws"].shape == (3, 3)
        assert not any(name.startswith("fus_") for name in cat.params)

    def test_elbo_variant_carries_decoders(self):
        adj_a, adj_b = toy_adjacencies()
        m = md.build_model(adj_a, adj_b, config(variant="elbo"))
        decoders = sorted(n[len("dec_"):-len(".w")] for n in m.params if n.startswith("dec_")
                          and n.endswith(".w"))
        assert decoders == ["a.h1", "a.h2", "aug.h1", "aug.h2", "b.h1", "b.h2"]
        for key in decoders:
            assert m.params[f"dec_{key}.w"].shape == (3, (m.config.l + 1) * m.config.k)
            assert m.params[f"dec_{key}.b"].shape == (1, (m.config.l + 1) * m.config.k)

    def test_state_holds_only_config_adjacencies_and_params(self):
        assert [f.name for f in dataclasses.fields(md.ModelState)] == [
            "config", "adjacency_a", "adjacency_b", "params"]

    def test_every_variant_builds_and_runs(self):
        adj_a, adj_b = toy_adjacencies()
        users = np.arange(4)
        for variant in VARIANTS:
            m = md.build_model(adj_a, adj_b, config(variant=variant))
            fwd = md.forward(m, users, 0.4)
            assert fwd.s["a"].shape == (4, 3) and fwd.s["b"].shape == (4, 3)

    def test_mismatched_user_sets_rejected(self):
        adj_a, _ = toy_adjacencies()
        adj_other = build_bipartite_adjacency(make_set([(0, 0), (1, 1)], 2, 2))
        with pytest.raises(ConfigError):
            md.build_model(adj_a, adj_other, config())


class TestForward:
    def test_scored_rows_equal_eval_rows(self):
        adj_a, adj_b = toy_adjacencies()
        users, items = np.array([0, 2, 3]), np.array([1, 2, 5])
        for variant in VARIANTS:
            m = md.build_model(adj_a, adj_b, config(variant=variant))
            s_a, t_a = model_representations(m)["a"]
            fwd = md.forward(m, users, 0.5, item_indices={"a": items})
            np.testing.assert_array_equal(fwd.s["a"].data, s_a[users], err_msg=variant)
            np.testing.assert_array_equal(fwd.t["a"].data, t_a[items], err_msg=variant)

    def test_one_domain_pass_builds_that_domain_only(self):
        adj_a, adj_b = toy_adjacencies()
        for variant in ("full", "base"):
            m = md.build_model(adj_a, adj_b, config(variant=variant))
            fwd = md.forward(m, np.arange(4), 0.5, item_indices={"b": np.array([0, 3])})
            assert set(fwd.s) == set(fwd.t) == set(fwd.items) == {"b"}
            assert fwd.t["b"].shape == (2, 3)

    def test_base_path_has_no_codes(self):
        adj_a, adj_b = toy_adjacencies()
        m = md.build_model(adj_a, adj_b, config(variant="base"))
        fwd = md.forward(m, np.arange(4), 0.5)
        assert fwd.codes == {} and fwd.enc_results == {}

    def test_full_codes_keys(self):
        adj_a, adj_b = toy_adjacencies()
        m = md.build_model(adj_a, adj_b, config())
        fwd = md.forward(m, np.arange(4), 0.5)
        assert sorted(fwd.codes) == ["ind_a", "ind_b", "sha", "spe_a", "spe_aug", "spe_b"]

    def test_lambda_endpoints_reproduce_pure_domains(self):
        adj_a, adj_b = toy_adjacencies()
        m = md.build_model(adj_a, adj_b, config(variant="elbo"))  # keeps enc_inputs
        users = np.arange(4)
        at_one = md.forward(m, users, 1.0)
        at_zero = md.forward(m, users, 0.0)
        np.testing.assert_array_equal(at_one.enc_inputs["aug"].data,
                                      at_one.enc_inputs["a"].data)
        np.testing.assert_array_equal(at_zero.enc_inputs["aug"].data,
                                      at_zero.enc_inputs["b"].data)

    def test_stochastic_draws_repeat_under_same_rngs(self):
        adj_a, adj_b = toy_adjacencies()
        m = md.build_model(adj_a, adj_b, config())
        users = np.arange(4)
        cfg = m.config
        f1 = md.forward(m, users, 0.5, noise_rngs=_noise_rngs(cfg, 3, 7))
        f2 = md.forward(m, users, 0.5, noise_rngs=_noise_rngs(cfg, 3, 7))
        f3 = md.forward(m, users, 0.5, noise_rngs=_noise_rngs(cfg, 3, 8))
        np.testing.assert_array_equal(f1.codes["sha"].data, f2.codes["sha"].data)
        assert np.abs(f1.codes["sha"].data - f3.codes["sha"].data).max() > 0

    def test_deterministic_path_equals_mu(self):
        adj_a, adj_b = toy_adjacencies()
        m = md.build_model(adj_a, adj_b, config(variant="elbo"))
        fwd = md.forward(m, np.arange(4), 0.5)
        for branch in md.BRANCHES:
            res = fwd.enc_results[branch]
            np.testing.assert_array_equal(res.z1.data, res.mu1.data)
            np.testing.assert_array_equal(res.z2.data, res.mu2.data)

    def test_noise_free_pass_forms_no_log_sigma(self, monkeypatch):
        # 2 GCN layers per domain, 3 encoder trunks and their 6 mu heads
        adj_a, adj_b = toy_adjacencies()
        m = md.build_model(adj_a, adj_b, config(variant="full", l=2))
        calls = []
        for op in ("affine", "clamp"):
            real = getattr(ad, op)
            monkeypatch.setattr(ad, op, lambda *a, op=op, real=real: calls.append(op) or real(*a))
        model_representations(m)
        assert calls == ["affine"] * 13

    @pytest.mark.parametrize("variant", [v for v in VARIANTS if v != "base"])
    def test_only_elbo_keeps_encoder_statistics(self, variant):
        adj_a, adj_b = toy_adjacencies()
        m = md.build_model(adj_a, adj_b, config(variant=variant))
        fwd = md.forward(m, np.arange(4), 0.5, noise_rngs=_noise_rngs(m.config, 0, 0))
        assert len(fwd.codes) == 6
        if variant == "elbo":
            assert set(fwd.enc_results) == set(fwd.enc_inputs) == set(md.BRANCHES)
        else:
            assert fwd.enc_results == {} and fwd.enc_inputs == {}


class TestScorePairs:
    def test_matches_eval_path_cosine(self):
        adj_a, adj_b = toy_adjacencies()
        m = md.build_model(adj_a, adj_b, config())
        rng = np.random.default_rng(7)
        users = rng.integers(0, 4, size=30)
        items = rng.integers(0, 6, size=30)
        fwd = md.forward(m, np.unique(users), 0.5, item_indices={"a": np.unique(items)})
        y, _, _ = md.score_pairs(fwd, "a", users, items)
        s_a, t_a = model_representations(m)["a"]
        sn = s_a / np.linalg.norm(s_a, axis=1, keepdims=True)
        tn = t_a / np.linalg.norm(t_a, axis=1, keepdims=True)
        manual = np.einsum("ij,ij->i", sn[users], tn[items]).reshape(-1, 1)
        np.testing.assert_allclose(y.data, manual, atol=1e-12)

    def test_distinct_item_tower_matches_per_pair_tower(self):
        adj_a, adj_b = toy_adjacencies()
        m = md.build_model(adj_a, adj_b, config(variant="base"))
        rng = np.random.default_rng(9)
        users = rng.integers(0, 4, size=40)
        items = rng.integers(0, 6, size=40)  # every item about 7 times
        readout = rng.standard_normal((40, 1))
        tower = [m.params["tow_a.item.0"], m.params["tow_a.item.1"]]

        def run(per_pair):
            ad.zero_grads(m.params.values())
            fwd = md.forward(m, np.unique(users), 0.5, item_indices={"a": np.unique(items)})
            if per_pair:
                positions = np.searchsorted(fwd.users, users)
                s = ad.gather_rows(fwd.s["a"], positions)
                layers = gr.encode_graph(m.adjacency_a, m.params, "gcn_a", m.config.l)
                item_rows = gr.node_rows(layers, adj_a.num_users + items)
                t = fu.tower_forward(item_rows, m.params, "tow_a.item")
                y = fu.predict(s, t)
            else:
                y, s, t = md.score_pairs(fwd, "a", users, items)
            ad.backward(ad.mean_all(ad.mul_const(y, readout)))
            return y.data, t.data, [w.grad for w in tower]

        y_ref, t_ref, g_ref = run(per_pair=True)
        y, t, g = run(per_pair=False)
        np.testing.assert_allclose(y, y_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(t, t_ref, rtol=0, atol=1e-12)
        for got, want in zip(g, g_ref):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_scores_lie_in_cosine_range(self):
        adj_a, adj_b = toy_adjacencies()
        m = md.build_model(adj_a, adj_b, config(variant="wo_ind"))
        fwd = md.forward(m, np.arange(4), 0.3)
        y, _, _ = md.score_pairs(fwd, "b", np.array([0, 1, 2, 3]), np.array([0, 1, 2, 3]))
        assert np.all(np.abs(y.data) <= 1 + 1e-12)

    def test_user_missing_from_pass_raises(self):
        adj_a, adj_b = toy_adjacencies()
        m = md.build_model(adj_a, adj_b, config())
        fwd = md.forward(m, np.array([0, 2]), 0.5)
        with pytest.raises(ad.ContractError):
            md.score_pairs(fwd, "a", np.array([1]), np.array([0]))

    def test_pair_beyond_the_pass_raises(self):
        # searchsorted puts an index above every covered one past the end
        adj_a, adj_b = toy_adjacencies()
        m = md.build_model(adj_a, adj_b, config())
        fwd = md.forward(m, np.array([0, 2]), 0.5, item_indices={"a": np.array([1, 4])})
        for users, items in (([3], [1]), ([0], [5]), ([0], [2]), ([2, 0], [4, 0])):
            with pytest.raises(ad.ContractError):
                md.score_pairs(fwd, "a", np.array(users), np.array(items))
        empty = np.array([], dtype=np.int64)
        y, s, t = md.score_pairs(fwd, "a", empty, empty)  # an empty domain's batch
        assert y.shape == (0, 1) and s.shape[0] == t.shape[0] == 0


class TestPersistence:
    def test_roundtrip_bitwise(self, tmp_path):
        adj_a, adj_b = toy_adjacencies()
        m = md.build_model(adj_a, adj_b, config(variant="elbo"))
        path = str(tmp_path / "model.npz")
        md.save_model(path, m)
        # members load by name: the same file with its members reversed loads the same
        members = dict(np.load(path, allow_pickle=False))
        reversed_path = str(tmp_path / "reversed.npz")
        np.savez(reversed_path, **dict(reversed(list(members.items()))))
        assert np.load(reversed_path).files == list(reversed(members))
        for source in (path, reversed_path):
            loaded = md.load_model(source, adj_a, adj_b)
            assert list(loaded.params) == list(m.params)
            for name in m.params:
                np.testing.assert_array_equal(loaded.params[name].data, m.params[name].data)
            assert loaded.config == m.config

    def test_missing_file_raises_artifact_error(self, tmp_path):
        adj_a, adj_b = toy_adjacencies()
        with pytest.raises(ArtifactError):
            md.load_model(str(tmp_path / "absent.npz"), adj_a, adj_b)

    def test_corrupt_file_raises_artifact_error(self, tmp_path):
        adj_a, adj_b = toy_adjacencies()
        path = tmp_path / "junk.npz"
        path.write_bytes(b"not a zip archive")
        with pytest.raises(ArtifactError):
            md.load_model(str(path), adj_a, adj_b)

    def test_plain_npy_file_lacks_a_config_record(self, tmp_path):
        # a .npy file holds one array and no members, even an array naming "__config__"
        adj_a, adj_b = toy_adjacencies()
        for name, array in (("zeros.npy", np.zeros(3)), ("names.npy", np.array(["__config__"]))):
            np.save(tmp_path / name, array)
            with pytest.raises(ArtifactError, match="lacks a config record"):
                md.load_model(str(tmp_path / name), adj_a, adj_b)

    def test_missing_config_entry_raises(self, tmp_path):
        adj_a, adj_b = toy_adjacencies()
        path = tmp_path / "noconf.npz"
        np.savez(path, stray=np.zeros((2, 2)))
        with pytest.raises(ArtifactError):
            md.load_model(str(path), adj_a, adj_b)

    def test_shape_tamper_raises(self, tmp_path):
        adj_a, adj_b = toy_adjacencies()
        m = md.build_model(adj_a, adj_b, config())
        path = str(tmp_path / "model.npz")
        md.save_model(path, m)
        arrays = dict(np.load(path, allow_pickle=False))
        first = next(name for name in arrays if name != "__config__")
        arrays[first] = np.zeros((1, 1))
        np.savez(path, **arrays)
        with pytest.raises(ArtifactError):
            md.load_model(path, adj_a, adj_b)

    def test_mismatched_names_raise(self, tmp_path):
        # the names are the only layout: a missing or a stray member is refused
        adj_a, adj_b = toy_adjacencies()
        m = md.build_model(adj_a, adj_b, config())
        path = str(tmp_path / "model.npz")
        md.save_model(path, m)
        arrays = dict(np.load(path, allow_pickle=False))
        dropped = {name: data for name, data in arrays.items() if name != "clf.b"}
        stray = dict(arrays, **{"clf.b2": arrays["clf.b"]})
        for members in (dropped, stray):
            tampered = str(tmp_path / "tampered.npz")
            np.savez(tampered, **members)
            with pytest.raises(ArtifactError, match="mismatched parameter names"):
                md.load_model(tampered, adj_a, adj_b)
