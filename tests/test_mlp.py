"""Network training contracts: gradients, determinism, persistence."""

import dataclasses
import json

import numpy as np
import pytest

from fdexplain import kernels, mlp
from fdexplain.errors import NumericalError

import oracles


def _toy(task: str, n: int = 10, f: int = 4, seed: int = 0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, f))
    if task == "classification":
        y = (rng.random(n) < 0.5).astype(np.float64)
    else:
        y = rng.normal(size=n)
    return X, y


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        mlp.MlpConfig(hidden_sizes=(50, 0))
    with pytest.raises(ValueError):
        mlp.MlpConfig(task="ranking")
    with pytest.raises(ValueError):
        mlp.MlpConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        mlp.MlpConfig(batch_size=0)
    with pytest.raises(ValueError):
        mlp.MlpConfig(val_fraction=1.0)
    with pytest.raises(ValueError, match="unknown"):
        mlp.MlpConfig.from_dict({"task": "regression", "nodes": 3})


def test_config_round_trip():
    config = mlp.MlpConfig(hidden_sizes=(8, 4), task="regression", seed=5)
    assert mlp.MlpConfig.from_dict(config.to_dict()) == config


@pytest.mark.parametrize("hidden", [(8,), (50, 40, 30), (3, 1)])
@pytest.mark.parametrize("width", [1, 100, 1000])
@pytest.mark.parametrize("seed", [0, 1, 42])
def test_init_params_matches_offset_reference(hidden, width, seed):
    sizes = mlp.layer_sizes(width, mlp.MlpConfig(hidden_sizes=hidden))
    ours = mlp.init_params(sizes, np.random.default_rng(seed))
    ref = oracles.init_params_ref(sizes, np.random.default_rng(seed))
    assert ours.tobytes() == ref.tobytes()


def test_layer_sizes_and_param_count():
    config = mlp.MlpConfig()
    sizes = mlp.layer_sizes(5, config)
    assert sizes.tolist() == [5, 50, 40, 30, 1]
    # 5*50+50 + 50*40+40 + 40*30+30 + 30*1+1
    assert mlp.n_params(sizes) == 3601


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_gradient_check_classification():
    X, y = _toy("classification")
    config = mlp.MlpConfig(task="classification")
    assert oracles.gradient_check(config, X, y) < 1e-4


def test_gradient_check_regression():
    X, y = _toy("regression")
    config = mlp.MlpConfig(task="regression")
    assert oracles.gradient_check(config, X, y) < 1e-4


def test_gradient_check_rejects_large_instances():
    X, y = _toy("regression", n=25, f=4)
    with pytest.raises(ValueError, match="up to"):
        oracles.gradient_check(mlp.MlpConfig(task="regression"), X, y)


def test_linear_network_closed_form_gradient():
    # no hidden layers: loss = mean((Xw + b - y)^2), so the analytic
    # gradient must equal 2 X^T r / n and 2 mean(r) exactly
    rng = np.random.default_rng(2)
    n, f = 12, 3
    X = rng.normal(size=(n, f))
    y = rng.normal(size=n)
    w = rng.normal(size=f)
    b = rng.normal()
    sizes = np.array([f, 1], dtype=np.int64)
    params = np.concatenate([w, [b]])
    grad = np.empty_like(params)
    loss = kernels.mlp_loss_grad(params, sizes, X, y, kernels.TASK_REGRESSION,
                                 grad)
    r = X @ w + b - y
    assert loss == pytest.approx(np.mean(r ** 2), rel=1e-12)
    closed = np.concatenate([2.0 * X.T @ r / n, [2.0 * np.mean(r)]])
    assert np.max(np.abs(grad - closed)) < 1e-10


def test_zero_network_zero_targets_stationary():
    # exact fit: every gradient entry, output bias included, is 0
    X = np.random.default_rng(0).normal(size=(6, 2))
    y = np.zeros(6)
    sizes = np.array([2, 3, 1], dtype=np.int64)
    params = np.zeros(mlp.n_params(sizes))
    grad = np.empty_like(params)
    loss = kernels.mlp_loss_grad(params, sizes, X, y, kernels.TASK_REGRESSION,
                                 grad)
    assert loss == 0.0
    assert np.all(grad == 0.0)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def test_separable_toy_reaches_full_accuracy():
    # 1 feature, margin 0.5 around zero, y = 1 iff the score is positive
    rng = np.random.default_rng(4)
    half = 100
    x = np.concatenate([rng.uniform(0.5, 1.5, half),
                        rng.uniform(-1.5, -0.5, half)])[:, None]
    y = np.concatenate([np.ones(half), np.zeros(half)])
    config = mlp.MlpConfig(hidden_sizes=(16, 8), task="classification",
                           max_epochs=200, seed=1)
    model = mlp.train(x, y, config)
    assert np.array_equal(model.predict_labels(x), y.astype(np.int64))


def test_constant_zero_regression():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(80, 3))
    y = np.zeros(80)
    config = mlp.MlpConfig(hidden_sizes=(8,), task="regression",
                           max_epochs=800, learning_rate=0.01,
                           patience=800, seed=0)
    model = mlp.train(X, y, config)
    assert float(np.mean(model.predict(X) ** 2)) < 1e-3


def test_training_deterministic():
    X, y = _toy("classification", n=60, f=3, seed=1)
    config = mlp.MlpConfig(hidden_sizes=(10,), task="classification",
                           max_epochs=30, seed=7)
    a = mlp.train(X, y, config)
    b = mlp.train(X, y, config)
    assert np.array_equal(a.params, b.params)
    assert a.log.train_loss == b.log.train_loss


def test_final_loss_below_initial():
    X, y = _toy("regression", n=120, f=4, seed=3)
    y = X[:, 0] * 2.0 + 0.5 * X[:, 1]
    config = mlp.MlpConfig(hidden_sizes=(12,), task="regression",
                           max_epochs=100, seed=2)
    model = mlp.train(X, y, config)
    assert model.log.train_loss[-1] < model.log.train_loss[0]


def _separable(half: int = 50, seed: int = 0):
    rng = np.random.default_rng(seed)
    x = np.concatenate([rng.uniform(0.5, 1.5, half),
                        rng.uniform(-1.5, -0.5, half)])[:, None]
    return x, np.concatenate([np.ones(half), np.zeros(half)])


def _noise(n: int = 80, seed: int = 0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 3)), rng.normal(size=n)


_STOPPING_CASES = {
    # cross-entropy on separable data falls every epoch, by ever less
    "separable": (_separable, dict(hidden_sizes=(8,), task="classification",
                                   max_epochs=400, patience=5,
                                   learning_rate=0.01, seed=1)),
    # a network fit to pure noise is best before it starts to overfit
    "noise": (_noise, dict(hidden_sizes=(16,), task="regression",
                           max_epochs=300, patience=5, learning_rate=0.01)),
    # a short budget ends first
    "short": (_noise, dict(hidden_sizes=(16,), task="regression",
                           max_epochs=4, patience=20)),
    "no-validation": (_separable, dict(hidden_sizes=(4,), max_epochs=30,
                                       val_fraction=0.0)),
}


@pytest.mark.parametrize("case", _STOPPING_CASES)
def test_min_delta_zero_is_the_patience_reference(case, monkeypatch):
    data, fields = _STOPPING_CASES[case]
    X, y = data()
    config = mlp.MlpConfig(**fields)
    monkeypatch.setattr(mlp, "MIN_DELTA", 0.0)
    ours = mlp.train(X, y, config)
    ref = oracles.train_ref(X, y, config)
    assert ours.params.tobytes() == ref.params.tobytes()
    assert dataclasses.replace(ours.log, stop_reason="max_epochs") == ref.log
    # with MIN_DELTA 0 every drop counts, so only plain patience stops early
    assert ours.log.stop_reason == (
        "max_epochs" if ours.log.epochs_run == config.max_epochs
        else "patience")


@pytest.mark.parametrize("case, min_delta, reason", [
    ("separable", 0.0, "max_epochs"),
    ("separable", 1e-4, "min_delta"),
    ("separable", 1.0, "min_delta"),
    ("noise", 1e-4, "patience"),
    ("short", 1e-4, "max_epochs"),
    ("no-validation", 1e-4, "max_epochs"),
])
def test_stop_reasons(case, min_delta, reason, monkeypatch):
    data, fields = _STOPPING_CASES[case]
    X, y = data()
    config = mlp.MlpConfig(**fields)
    monkeypatch.setattr(mlp, "MIN_DELTA", min_delta)
    log = mlp.train(X, y, config).log
    assert log.stop_reason == reason
    assert log.epochs_run == len(log.train_loss)
    if not log.val_loss:
        assert log.best_epoch == -1
        return
    # the kept weights are those of the lowest loss, whatever MIN_DELTA is
    assert log.val_loss[log.best_epoch] == min(log.val_loss)
    assert log.best_epoch == log.val_loss.index(min(log.val_loss))
    if reason == "max_epochs":
        assert log.epochs_run == config.max_epochs
        return
    # each of the last `patience` epochs against the lowest loss before it
    drops = [min(log.val_loss[:i]) - log.val_loss[i]
             for i in range(log.epochs_run - config.patience, log.epochs_run)]
    assert max(drops) <= min_delta
    assert (max(drops) > 0) == (reason == "min_delta")


def test_min_delta_stops_separable_training_early(monkeypatch):
    X, y = _separable()
    config = mlp.MlpConfig(**_STOPPING_CASES["separable"][1])
    early = mlp.train(X, y, config)
    monkeypatch.setattr(mlp, "MIN_DELTA", 0.0)
    full = mlp.train(X, y, config)
    assert early.log.epochs_run < full.log.epochs_run / 2
    assert early.log.val_loss == full.log.val_loss[:early.log.epochs_run]
    assert np.array_equal(early.predict_labels(X), y.astype(np.int64))


def test_training_validation_errors():
    X, y = _toy("classification", n=10)
    with pytest.raises(ValueError, match="0 or 1"):
        mlp.train(X, np.full(10, 0.5), mlp.MlpConfig(task="classification"))
    with pytest.raises(ValueError, match="targets"):
        mlp.train(X, y[:-1], mlp.MlpConfig(task="classification"))
    with pytest.raises(ValueError, match="finite"):
        mlp.train(X, np.full(10, np.nan), mlp.MlpConfig(task="regression"))
    with pytest.raises(ValueError, match="validation split"):
        mlp.train(X[:2], y[:2], mlp.MlpConfig(task="classification",
                                              val_fraction=0.9))


def test_divergent_training_aborts():
    X, y = _toy("regression", n=16, f=2)
    config = mlp.MlpConfig(hidden_sizes=(4,), task="regression",
                           max_epochs=5, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="non-finite"):
            mlp.train(X, np.full(16, 1e200), config)


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def _manual_mlp(sizes, params, config) -> mlp.Mlp:
    f = int(sizes[0])
    return mlp.Mlp(config, sizes, params, np.zeros(f), np.ones(f),
                   np.zeros(f, dtype=bool), mlp.TrainingLog())


def test_zero_weights_give_probability_half():
    sizes = np.array([2, 3, 1], dtype=np.int64)
    model = _manual_mlp(sizes, np.zeros(mlp.n_params(sizes)),
                        mlp.MlpConfig(hidden_sizes=(3,), task="classification"))
    probs = model.predict(np.random.default_rng(0).normal(size=(5, 2)))
    assert np.all(probs == 0.5)


def test_hard_label_threshold():
    # logistic output bias pins the probability; 0.5 maps to label 1
    sizes = np.array([1, 1], dtype=np.int64)
    config = mlp.MlpConfig(hidden_sizes=(), task="classification")
    x = np.zeros((1, 1))
    at_half = _manual_mlp(sizes, np.array([0.0, 0.0]), config)
    assert at_half.predict(x)[0] == 0.5
    assert at_half.predict_labels(x)[0] == 1
    high = _manual_mlp(sizes, np.array([0.0, np.log(0.7 / 0.3)]), config)
    assert high.predict(x)[0] == pytest.approx(0.7, rel=1e-12)
    assert high.predict_labels(x)[0] == 1
    low = _manual_mlp(sizes, np.array([0.0, -1.0]), config)
    assert low.predict_labels(x)[0] == 0


def test_predict_pure_and_width_checked():
    X, y = _toy("classification", n=30, f=3, seed=6)
    config = mlp.MlpConfig(hidden_sizes=(6,), task="classification",
                           max_epochs=20, seed=3)
    model = mlp.train(X, y, config)
    assert np.array_equal(model.predict(X), model.predict(X))
    with pytest.raises(ValueError, match="features"):
        model.predict(X[:, :2])
    reg = mlp.train(X, y, mlp.MlpConfig(hidden_sizes=(6,), task="regression",
                                        max_epochs=5))
    with pytest.raises(ValueError, match="hard labels"):
        reg.predict_labels(X)


def test_standardization_absorbed_into_first_layer():
    # a raw-input network whose first layer absorbs the affine transform
    # must predict identically to the standardizing network
    rng = np.random.default_rng(9)
    X = rng.normal(size=(50, 3)) * np.array([100.0, 1.0, 0.01]) + 5.0
    y = (rng.random(50) < 0.5).astype(np.float64)
    config = mlp.MlpConfig(hidden_sizes=(7, 4), task="classification",
                           max_epochs=25, seed=11, standardize=True)
    model = mlp.train(X, y, config)

    w1, b1 = kernels._layer_views(model.params, model.sizes)[0]
    absorbed = model.params.copy()
    k = w1.size
    absorbed[:k] = (w1 / model.feature_scale[:, None]).ravel()
    absorbed[k:k + b1.size] = b1 - (model.feature_mean / model.feature_scale) @ w1
    raw = mlp.Mlp(model.config, model.sizes, absorbed,
                  np.zeros(3), np.ones(3), np.zeros(3, dtype=bool),
                  mlp.TrainingLog())
    probe = rng.normal(size=(20, 3)) * np.array([100.0, 1.0, 0.01]) + 5.0
    assert np.max(np.abs(raw.predict(probe) - model.predict(probe))) < 1e-10


def _standardizing_formula(model, X):
    return np.ascontiguousarray((X - model.feature_mean) / model.feature_scale)


@pytest.mark.parametrize("mean,scale,identity", [
    ([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], True),
    ([0.0, -0.0, 0.0], [1.0, 1.0, 1.0], False),
    ([0.0, 0.0, 0.0], [1.0, 2.0, 1.0], False),
    ([0.0, 0.25, 0.0], [1.0, 1.0, 1.0], False),
])
def test_standardization_identity_only_when_bitwise_exact(mean, scale,
                                                          identity):
    # (x - +0.0) / 1 is x for every x, but (-0.0 - -0.0) / 1 is +0.0:
    # only an all-+0.0 mean with unit scale may skip the arithmetic
    rng = np.random.default_rng(15)
    sizes = np.array([3, 5, 1], dtype=np.int64)
    model = mlp.Mlp(mlp.MlpConfig(hidden_sizes=(5,)), sizes,
                    rng.normal(size=mlp.n_params(sizes)),
                    np.array(mean), np.array(scale), np.zeros(3, dtype=bool),
                    mlp.TrainingLog())
    X = rng.normal(size=(12, 3))
    X[::3, 1] = -0.0
    expected = _standardizing_formula(model, X)
    assert mlp._scaled(X, model.feature_mean,
                       model.feature_scale).tobytes() == expected.tobytes()
    assert (expected.tobytes() == X.tobytes()) == identity
    assert model.predict(X).tobytes() == mlp._stable_sigmoid(
        kernels.mlp_forward(model.params, sizes, expected)).tobytes()
    # the kernel always gets a C-contiguous input, as the formula gives it
    strided = np.repeat(X, 2, axis=1)[:, ::2]
    assert mlp._scaled(strided, model.feature_mean,
                       model.feature_scale).flags.c_contiguous


def test_constant_feature_passthrough_flagged():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(40, 3))
    X[:, 1] = 2.5  # zero variance column
    y = (rng.random(40) < 0.5).astype(np.float64)
    model = mlp.train(X, y, mlp.MlpConfig(hidden_sizes=(4,), max_epochs=5,
                                          task="classification"))
    assert model.passthrough.tolist() == [False, True, False]
    assert model.feature_scale[1] == 1.0


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    X, y = _toy("regression", n=40, f=3, seed=12)
    config = mlp.MlpConfig(hidden_sizes=(9, 5), task="regression",
                           max_epochs=15, seed=4)
    model = mlp.train(X, y, config)
    mlp.save_mlp(model, tmp_path)
    loaded = mlp.load_mlp(tmp_path)
    assert loaded.config == model.config
    assert loaded.log == model.log
    assert loaded.params.tobytes() == model.params.tobytes()
    assert loaded.sizes.dtype == model.sizes.dtype
    assert loaded.sizes.tobytes() == model.sizes.tobytes()
    probe = np.random.default_rng(1).normal(size=(7, 3))
    assert np.max(np.abs(loaded.predict(probe) - model.predict(probe))) <= 1e-12


@pytest.mark.parametrize("key", ["feature_mean", "feature_scale",
                                 "passthrough"])
def test_load_rejects_scaling_of_another_width(tmp_path, key):
    X, y = _toy("classification", n=20, f=2, seed=13)
    model = mlp.train(X, y, mlp.MlpConfig(hidden_sizes=(4,), max_epochs=3))
    mlp.save_mlp(model, tmp_path)
    path = tmp_path / "mlp.json"
    meta = json.loads(path.read_text())
    meta[key] = meta[key] + meta[key][:1]
    path.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=rf"mlp\.json: {key} has 3 entries, "
                                         rf"expected 2"):
        mlp.load_mlp(tmp_path)


@pytest.mark.parametrize("hidden, edited, name", [
    ((4, 3), [7], "layer_0.csv"), ((4, 3), [4, 3, 2], "layer_2.csv"),
    ((4, 1), [4], "mlp.json")], ids=["width", "extra-layer", "layer-left"])
def test_load_rejects_hidden_sizes_that_disagree_with_the_layers(
        tmp_path, hidden, edited, name):
    X, y = _toy("classification", n=20, f=2, seed=16)
    mlp.save_mlp(mlp.train(X, y, mlp.MlpConfig(hidden_sizes=hidden,
                                               max_epochs=2)), tmp_path)
    path = tmp_path / "mlp.json"
    meta = json.loads(path.read_text())
    assert "sizes" not in meta
    meta["config"]["hidden_sizes"] = edited
    path.write_text(json.dumps(meta))
    with pytest.raises(ValueError) as info:
        mlp.load_mlp(tmp_path)
    assert str(info.value).startswith(f"{tmp_path / name}: ")


def test_a_shallower_network_saved_over_a_deeper_one_loads(tmp_path):
    X, y = _toy("classification", n=20, f=2, seed=17)
    mlp.save_mlp(mlp.train(X, y, mlp.MlpConfig(hidden_sizes=(4, 3, 2),
                                               max_epochs=2)), tmp_path)
    model = mlp.train(X, y, mlp.MlpConfig(hidden_sizes=(5,), max_epochs=2))
    mlp.save_mlp(model, tmp_path)
    assert sorted(p.name for p in tmp_path.glob("layer_*.csv")) == [
        "layer_0.csv", "layer_1.csv"]
    loaded = mlp.load_mlp(tmp_path)
    assert loaded.sizes.tolist() == [2, 5, 1]
    np.testing.assert_array_equal(loaded.params, model.params)


def test_load_missing_model_errors(tmp_path):
    with pytest.raises(FileNotFoundError, match="missing artifact"):
        mlp.load_mlp(tmp_path / "nowhere")
