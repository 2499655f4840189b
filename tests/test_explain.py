"""Permutation importance contracts: oracle equivalence, zero property,
immutability, the network path against calling `predict`, ranking
rules."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdexplain import dataio, explain, kernels, mlp

import oracles


def _squared(predicted, actual):
    return (predicted - actual) ** 2


def _report_from_means(means) -> explain.PfiReport:
    means = np.asarray(means, dtype=np.float64)
    return explain.PfiReport(importances=means[:, None],
                             baseline_loss=0.0, loss="squared",
                             seed=0, n_obs=4)


# ---------------------------------------------------------------------------
# permutation_importance
# ---------------------------------------------------------------------------

def test_ignored_feature_importance_exactly_zero():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 3))
    y = X[:, 0] * 2.0
    report = explain.permutation_importance(lambda Z: Z[:, 0] * 2.0, X, y,
                                            "squared", replications=10, seed=1)
    # features 2 and 3 never enter the predictor: exact zeros, every rep
    assert np.all(report.importances[1] == 0.0)
    assert np.all(report.importances[2] == 0.0)
    assert np.all(report.importances[0] > 0.0)
    assert report.baseline_loss == 0.0


def test_monte_carlo_matches_exhaustive_oracle():
    # 4-observation linear predictor: all 24 permutations enumerable
    y = np.array([0.0, 1.0, 2.0, 3.0])
    X = np.column_stack([y, np.ones(4)])
    predict = lambda Z: Z[:, 0]  # noqa: E731

    exact = oracles.exhaustive_importance(predict, X, y, _squared, 0)
    report = explain.permutation_importance(predict, X, y, "squared",
                                            replications=5000, seed=3)
    mc = report.mean_importance[0]
    se = report.sd_importance[0] / np.sqrt(report.replications)
    assert abs(mc - exact) <= 3.0 * se
    # mean really is the arithmetic mean of the replications
    assert np.max(np.abs(report.mean_importance
                         - report.importances.mean(axis=1))) <= 1e-12


def test_negative_importances_reported():
    # adversarial predictor: permuting its one feature can only help
    y = np.array([0.0, 1.0])
    X = np.array([[1.0], [0.0]])
    report = explain.permutation_importance(lambda Z: Z[:, 0], X, y,
                                            "squared", replications=10, seed=5)
    assert np.all(report.importances <= 0.0)
    assert report.importances.min() == -1.0
    assert report.mean_importance[0] < 0.0


def test_source_matrix_never_mutated():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(25, 4))
    snapshot = X.copy()
    explain.permutation_importance(lambda Z: Z.sum(axis=1), X,
                                   rng.normal(size=25), "squared",
                                   replications=4, seed=0)
    assert X.tobytes() == snapshot.tobytes()


def test_permuted_column_is_rearrangement():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(15, 3))
    y = rng.normal(size=15)
    seen = []

    def predict(Z):
        seen.append(Z.copy())
        return Z[:, 0]

    explain.permutation_importance(predict, X, y, "squared",
                                   replications=3, seed=9)
    assert len(seen) == 1 + 3 * 3  # baseline + one call per (feature, rep)
    for call in seen[1:]:
        for j in range(3):
            assert np.array_equal(np.sort(call[:, j]), np.sort(X[:, j]))
        # exactly one column may differ from the source
        changed = [j for j in range(3)
                   if not np.array_equal(call[:, j], X[:, j])]
        assert len(changed) <= 1


def test_zero_one_importance_is_accuracy_drop():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(30, 2))
    y = (X[:, 0] > 0).astype(np.float64)
    predict = lambda Z: (Z[:, 0] > 0).astype(np.float64)  # noqa: E731
    seed, reps = 6, 5
    report = explain.permutation_importance(predict, X, y, "zero_one",
                                            replications=reps, seed=seed)
    base_acc = float(np.mean((predict(X) >= 0.5) == (y == 1.0)))
    assert report.baseline_loss == pytest.approx(1.0 - base_acc, abs=1e-15)
    # replay the documented substreams and compare accuracy drops
    for j in range(2):
        for rep in range(reps):
            perm = oracles.substream_ref(seed, j, rep).permutation(30)
            work = X.copy()
            work[:, j] = X[perm, j]
            acc = float(np.mean((predict(work) >= 0.5) == (y == 1.0)))
            assert report.importances[j, rep] == pytest.approx(
                base_acc - acc, abs=1e-15)


def test_deterministic_for_seed():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(20, 3))
    y = rng.normal(size=20)
    a = explain.permutation_importance(lambda Z: Z[:, 1], X, y, "squared",
                                       replications=6, seed=11)
    b = explain.permutation_importance(lambda Z: Z[:, 1], X, y, "squared",
                                       replications=6, seed=11)
    assert np.array_equal(a.importances, b.importances)


def test_single_replication_sd_zero():
    X = np.random.default_rng(0).normal(size=(8, 2))
    report = explain.permutation_importance(lambda Z: Z[:, 0], X,
                                            np.zeros(8), "squared",
                                            replications=1, seed=0)
    assert np.all(report.sd_importance == 0.0)


def test_validation_errors():
    X = np.ones((4, 2))
    y = np.zeros(4)
    predict = lambda Z: Z[:, 0]  # noqa: E731
    with pytest.raises(ValueError, match="loss"):
        explain.permutation_importance(predict, X, y, "hinge")
    with pytest.raises(ValueError, match="replications"):
        explain.permutation_importance(predict, X, y, "squared",
                                       replications=0)
    with pytest.raises(ValueError, match="targets"):
        explain.permutation_importance(predict, X, y[:-1], "squared")
    with pytest.raises(ValueError, match="observations"):
        explain.permutation_importance(predict, X[:1], y[:1], "squared")


@settings(max_examples=100, deadline=None)
@given(k=st.integers(1, 12), n=st.integers(1, 2100),
       loss=st.sampled_from(explain.LOSS_KINDS),
       seed=st.integers(0, 2**32 - 1))
def test_row_losses_equal_the_one_replication_mean(k, n, loss, seed):
    rng = np.random.default_rng(seed)
    if loss == "zero_one":
        predicted = rng.random((k, n))
        actual = (rng.random(n) < 0.5).astype(np.float64)
    else:
        predicted = rng.normal(size=(k, n)) * 10.0 ** rng.integers(-6, 7, (k, n))
        actual = rng.normal(size=n)
    loss_fn = explain._LOSS_FUNCS[loss]
    rows = explain._mean_losses(loss_fn, predicted, actual)
    for i in range(k):
        ref = oracles.mean_loss_ref(loss_fn, predicted[i], actual)
        assert rows[i].tobytes() == np.float64(ref).tobytes()


# ---------------------------------------------------------------------------
# networks: the first-layer update against calling predict
# ---------------------------------------------------------------------------

N_IN = 5


def _network(task, hidden, seed):
    """A network with random weights and biases."""
    rng = np.random.default_rng(seed)
    config = mlp.MlpConfig(hidden_sizes=hidden, task=task)
    sizes = mlp.layer_sizes(N_IN, config)
    params = rng.normal(size=mlp.n_params(sizes)) * 0.7
    return mlp.Mlp(config, sizes, params)


def _both_paths(net, reps, seed, strided=False):
    """Importances of `net` given as the network and as its `predict`, on
    data where every feature matters and the baseline loss is not zero;
    `strided` data is a view that is not C-contiguous."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(64, N_IN))
    if strided:
        X = np.repeat(X, 2, axis=1)[:, ::2]
    snapshot = X.tobytes()
    if net.config.task == "classification":
        loss = "zero_one"
        y = (net.predict(X) >= 0.5).astype(np.float64)
        y[::9] = 1.0 - y[::9]
    else:
        loss = "squared"
        y = net.predict(X) + 0.1 * rng.normal(size=64)
    fast = explain.permutation_importance(net, X, y, loss, replications=reps,
                                          seed=seed)
    assert X.tobytes() == snapshot
    slow = explain.permutation_importance(net.predict, X, y, loss,
                                          replications=reps, seed=seed)
    assert fast.baseline_loss == slow.baseline_loss > 0.0
    assert np.any(slow.importances != 0.0)
    return fast, slow


NETWORKS = [((6, 5, 4), False, 4), ((6, 5, 4), True, 4), ((7,), False, 4),
            ((6, 5, 4), False, 1)]


@pytest.mark.parametrize("hidden, strided, reps", NETWORKS)
def test_network_classifier_matches_calling_predict(hidden, strided, reps):
    net = _network("classification", hidden, 21)
    fast, slow = _both_paths(net, reps, seed=22, strided=strided)
    assert fast.importances.tobytes() == slow.importances.tobytes()
    assert fast.sd_importance.tobytes() == slow.sd_importance.tobytes()


@pytest.mark.parametrize("hidden, strided, reps", NETWORKS)
def test_network_regressor_matches_calling_predict(hidden, strided, reps):
    net = _network("regression", hidden, 31)
    fast, slow = _both_paths(net, reps, seed=32, strided=strided)
    assert np.max(np.abs(fast.importances - slow.importances)) <= 1e-12
    assert np.array_equal(explain.rank_features(fast),
                          explain.rank_features(slow))


def test_clipped_regressor_matches_calling_predict():
    """Both paths clip a regressor to its training range: with a range
    that clips about half the predictions, the network path still equals
    calling `predict`."""
    net = _network("regression", (6, 5, 4), 33)
    X = np.random.default_rng(32).normal(size=(64, N_IN))
    raw = kernels.mlp_forward(net.params, net.sizes, X)
    net.target_range = tuple(np.quantile(raw, [0.25, 0.75]).tolist())
    baseline, rows = explain._network_rows(net, X)
    assert baseline[0].tobytes() == net.predict(X).tobytes()
    assert 0.3 < np.mean(np.isin(baseline, net.target_range)) < 0.7
    fast, slow = _both_paths(net, 4, seed=32)
    assert np.max(np.abs(fast.importances - slow.importances)) <= 1e-12
    assert np.array_equal(explain.rank_features(fast),
                          explain.rank_features(slow))


@pytest.mark.parametrize("task", ["classification", "regression"])
def test_network_without_hidden_layers_calls_predict(task):
    net = _network(task, (), 41)
    fast, slow = _both_paths(net, 3, seed=42)
    assert fast.importances.tobytes() == slow.importances.tobytes()


def _replayed(model, X, y, loss, reps, seed):
    """Importances from one `substream_ref` shuffle at a time: a network
    through `_network_rows` one permutation per call, a callable on its
    own shuffled copy of X."""
    loss_fn = explain._LOSS_FUNCS[loss]
    if isinstance(model, mlp.Mlp):
        baseline, rows = explain._network_rows(model, X)
        predict = lambda j, perm: rows(j, perm[None])[0]  # noqa: E731
    else:
        baseline = model(X)

        def predict(j, perm):
            work = X.copy()
            work[:, j] = X[perm, j]
            return model(work)
    base = oracles.mean_loss_ref(loss_fn, np.ravel(baseline), y)
    out = np.empty((X.shape[1], reps))
    for j in range(X.shape[1]):
        for rep in range(reps):
            perm = oracles.substream_ref(seed, j, rep).permutation(X.shape[0])
            out[j, rep] = oracles.mean_loss_ref(loss_fn, predict(j, perm),
                                                y) - base
    return out


@pytest.mark.parametrize("task", ["classification", "regression"])
@pytest.mark.parametrize("path", ["network", "callable"])
def test_importances_equal_a_per_shuffle_substream_replay(task, path):
    net = _network(task, (6, 5), 61)
    X = np.random.default_rng(62).normal(size=(40, N_IN))
    y = net.predict(X) + np.random.default_rng(63).normal(size=40)
    loss = "squared"
    if task == "classification":
        loss, y = "zero_one", (y >= 0.5).astype(np.float64)
    model = net if path == "network" else net.predict
    report = explain.permutation_importance(model, X, y, loss,
                                            replications=5, seed=2**40 + 3)
    assert np.any(report.importances != 0.0)
    assert report.importances.tobytes() == _replayed(
        model, X, y, loss, 5, 2**40 + 3).tobytes()


def test_network_path_makes_one_forward_per_shuffle(monkeypatch):
    # what a traced benchmark run counts: width * replications + 1
    shapes = []
    forward = kernels.mlp_forward

    def counted(params, sizes, X):
        shapes.append(X.shape)
        return forward(params, sizes, X)

    monkeypatch.setattr(kernels, "mlp_forward", counted)
    net = _network("regression", (6, 5, 4), 51)
    X = np.random.default_rng(52).normal(size=(30, N_IN))
    explain.permutation_importance(net, X, X[:, 0], "squared",
                                   replications=3, seed=0)
    assert len(shapes) == N_IN * 3 + 1
    # the full network once, then only the layers above the first
    assert shapes[0] == (30, N_IN)
    assert set(shapes[1:]) == {(30, 6)}


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------

def test_rank_features_descending():
    assert explain.rank_features(
        _report_from_means([0.0, 0.3, 0.1])).tolist() == [2, 3, 1]


def test_rank_features_tie_breaks_ascending():
    assert explain.rank_features(
        _report_from_means([0.2, 0.2, 0.2])).tolist() == [1, 2, 3]
    assert explain.rank_features(
        _report_from_means([0.1, 0.5, 0.5, 0.0])).tolist() == [2, 3, 1, 4]


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    X = rng.normal(size=(12, 3))
    y = rng.normal(size=12)
    report = explain.permutation_importance(lambda Z: Z[:, 0] - Z[:, 2], X, y,
                                            "squared", replications=4, seed=8)
    explain.save_pfi(report, tmp_path, "y3")
    loaded = explain.load_pfi(tmp_path, "y3")
    assert np.array_equal(loaded.importances, report.importances)
    assert np.array_equal(loaded.mean_importance, report.mean_importance)
    assert loaded.baseline_loss == report.baseline_loss
    assert (loaded.loss, loaded.replications, loaded.seed, loaded.n_obs) == \
        ("squared", 4, 8, 12)


# finite floats with the bit patterns a text round trip can lose, small
# enough that a report's mean and sd stay in the float range (a report
# refuses the rest, below)
_FLOATS = (st.floats(-2.0**500, 2.0**500)
           | st.sampled_from([-0.0, 5e-324, -2.5e-320,
                              2.2250738585072014e-308]))


@settings(max_examples=100, deadline=None)
@given(shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
       data=st.data(), baseline=_FLOATS,
       loss=st.sampled_from(explain.LOSS_KINDS),
       seed=st.integers(0, 2**64 - 1), n_obs=st.integers(2, 2**40))
def test_save_load_keeps_every_bit(tmp_path_factory, shape, data, baseline,
                                   loss, seed, n_obs):
    values = data.draw(st.lists(_FLOATS, min_size=shape[0] * shape[1],
                                max_size=shape[0] * shape[1]))
    report = explain.PfiReport(np.array(values).reshape(shape), baseline,
                               loss, seed, n_obs)
    outdir = tmp_path_factory.mktemp("pfi")
    explain.save_pfi(report, outdir, "y1")
    loaded = explain.load_pfi(outdir, "y1")
    assert loaded.importances.tobytes() == report.importances.tobytes()
    assert (np.float64(loaded.baseline_loss).tobytes()
            == np.float64(baseline).tobytes())
    assert (loaded.loss, loaded.seed, loaded.n_obs) == (loss, seed, n_obs)


@pytest.mark.parametrize("row", [[8.988465674311579e307, 8.98846567431158e307],
                                 [-1e155, 1e155]], ids=["mean", "sd"])
def test_report_refuses_importances_beyond_the_float_range(tmp_path, row):
    with pytest.raises(ValueError, match="importances of feature 2 have a "
                       "mean or sd beyond the float range"):
        explain.PfiReport(np.array([[0.0, 0.0], row]), 0.0, "squared", 0, 2)
    # a table edited to hold them is refused by name
    explain.save_pfi(explain.PfiReport(np.zeros((2, 2)), 0.0, "squared", 0,
                                       2), tmp_path, "y3")
    path = tmp_path / "y3_pfi.csv"
    path.write_text(f"replication_1,replication_2\n0.0,0.0\n"
                    f"{row[0]!r},{row[1]!r}\n")
    with pytest.raises(ValueError, match="feature 2 have a mean or sd") \
            as info:
        explain.load_pfi(tmp_path, "y3")
    assert str(info.value).startswith(f"{path}: ")


def _saved_report(tmp_path, replications=2):
    rng = np.random.default_rng(4)
    X = rng.normal(size=(10, 3))
    report = explain.permutation_importance(lambda Z: Z[:, 0], X,
                                            rng.normal(size=10), "squared",
                                            replications=replications, seed=1)
    explain.save_pfi(report, tmp_path, "y3")
    return report


def test_saved_table_is_the_importance_matrix(tmp_path):
    report = _saved_report(tmp_path, replications=4)
    header, rows = dataio.read_table_csv(tmp_path / "y3_pfi.csv")
    assert header == [f"replication_{r}" for r in (1, 2, 3, 4)]
    assert rows.tobytes() == report.importances.tobytes()
    meta = dataio.read_json(tmp_path / "y3_pfi.json")
    assert "sd_importance" not in meta and "ranking" not in meta


def _long_format(path, report):
    """The `feature,replication,importance` table of earlier releases."""
    path.write_text("feature,replication,importance\n" + "".join(
        f"{j + 1}.0,{r + 1}.0,{v!r}\n"
        for j, row in enumerate(report.importances.tolist())
        for r, v in enumerate(row)))


def _more_replications(path, report):
    meta = json.loads(path.with_suffix(".json").read_text())
    meta["replications"] = 3
    path.with_suffix(".json").write_text(json.dumps(meta))


@pytest.mark.parametrize("edit", [_more_replications, _long_format],
                         ids=["replications", "long-format"])
def test_load_rejects_a_table_of_another_replication_count(tmp_path, edit):
    report = _saved_report(tmp_path)
    path = tmp_path / "y3_pfi.csv"
    edit(path, report)
    with pytest.raises(ValueError, match="replication_1 to replication_") \
            as info:
        explain.load_pfi(tmp_path, "y3")
    assert str(info.value).startswith(f"{path}: ")


def test_load_missing_report_errors(tmp_path):
    with pytest.raises(FileNotFoundError, match="missing artifact"):
        explain.load_pfi(tmp_path, "y1")
