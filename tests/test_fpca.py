"""Component-decomposition contracts, checked against closed forms and the
Jacobi rotation oracle."""

import math

import numpy as np
import pytest

from fdexplain import fpca
from fdexplain.sim import SimParams, TimeGrid, generate_dataset

import helpers
import oracles


def _two_point_model(m: int = 24, seed: int = 0):
    """Training set {mu + g, mu - g}: one component with a closed form."""
    rng = np.random.default_rng(seed)
    mu = rng.normal(size=m) + 5.0
    g = rng.normal(size=m)
    ds = helpers.make_dataset(np.vstack([mu + g, mu - g]))
    return fpca.fit(ds), ds, mu, g


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def test_fit_requires_two_signatures():
    ds = helpers.make_dataset(np.ones((1, 6)))
    with pytest.raises(ValueError, match="at least 2"):
        fpca.fit(ds)


def test_identical_signatures_zero_variance():
    row = np.linspace(1.0, 3.0, 12)
    ds = helpers.make_dataset(np.vstack([row, row]))
    model = fpca.fit(ds)
    assert np.array_equal(model.mean, row)
    assert np.all(model.eigenvalues == 0.0)


def test_two_point_closed_form():
    model, ds, mu, g = _two_point_model()
    dt = ds.grid.dt
    norm_g = helpers.quadrature_norm(g, dt)
    assert model.n_components == 1
    # eigenvalue = 2 * ||g||^2_dt / (n - 1) with n = 2
    assert model.eigenvalues[0] == pytest.approx(2.0 * norm_g ** 2, rel=1e-12)
    # eigenfunction = g normalized to unit quadrature norm, oriented toward
    # the first training signature (mu + g), so the +g direction
    assert np.allclose(model.eigenfunctions[0], g / norm_g, atol=1e-9)
    scores = fpca.transform(model, ds)
    assert scores[0, 0] == pytest.approx(norm_g, rel=1e-12)
    assert scores[1, 0] == pytest.approx(-norm_g, rel=1e-12)


def test_random_instances_match_oracles():
    rng = np.random.default_rng(2024)
    for _ in range(10):
        helpers.check_fpca_instance(rng)


def test_sign_convention_tie_breaks_toward_positive_start():
    # first centered signature orthogonal to the second mode: the tie rule
    # must orient the earliest nonzero value positive, for either input sign
    mu = np.full(4, 10.0)
    a = np.array([2.0, 2.0, 0.0, 0.0])
    for b in (np.array([0.0, 0.0, 1.0, -1.0]), np.array([0.0, 0.0, -1.0, 1.0])):
        ds = helpers.make_dataset(np.vstack([mu + a, mu - a, mu + b, mu - b]))
        model = fpca.fit(ds)
        assert model.n_components == 2
        # second eigenfunction spans b; its first nonzero entry (index 2)
        # must come out positive regardless of b's sign
        assert abs(model.eigenfunctions[1][0]) < 1e-9
        assert model.eigenfunctions[1][2] > 0.0


def test_rank_truncation_drops_noise_components():
    # rank-2 data embedded in 5 signatures: the trailing eigenvalues are
    # pure roundoff and must be dropped
    rng = np.random.default_rng(7)
    basis = rng.normal(size=(2, 10))
    coeffs = rng.normal(size=(5, 2))
    ds = helpers.make_dataset(coeffs @ basis + 4.0)
    model = fpca.fit(ds)
    assert model.n_components == 2
    assert model.eigenvalues[1] > fpca.RANK_TRUNCATION_RATIO * model.eigenvalues[0]


def test_fit_centers_its_input_in_one_array():
    """The centered, sqrt(dt)-scaled input is one n x grid array, so the
    fit's allocation peak beyond its input stays below four such arrays."""
    n, grid = 400, TimeGrid()
    train = generate_dataset(n, SimParams(), seed=5, grid=grid)
    peak = helpers.traced_peak(lambda: fpca.fit(train))
    assert peak / (n * grid.count * 8) <= 3.9


def test_model_arrays_immutable():
    model, _, _, _ = _two_point_model()
    with pytest.raises(ValueError):
        model.mean[0] = 0.0
    with pytest.raises(ValueError):
        model.eigenfunctions[0, 0] = 0.0


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------

def test_transform_mean_is_zero_row():
    model, _, _, _ = _two_point_model()
    scores = fpca.transform(model, model.mean[None, :])
    assert np.max(np.abs(scores)) <= 1e-12


def test_transform_grid_mismatch():
    model, ds, _, _ = _two_point_model(m=24)
    with pytest.raises(ValueError, match="grid"):
        fpca.transform(model, np.ones((3, 25)))
    # as many points as the model's grid, sampled over another span
    shifted = helpers.make_dataset(ds.values, start=-5.0, stop=1.0)
    with pytest.raises(ValueError) as info:
        fpca.transform(model, shifted)
    assert str(shifted.grid) in str(info.value)
    assert str(model.grid) in str(info.value)


def test_training_scores_centered_uncorrelated_variances():
    rng = np.random.default_rng(11)
    ds = helpers.make_dataset(rng.normal(size=(30, 20)) * 2.0 + 1.0)
    model = fpca.fit(ds)
    scores = fpca.transform(model, ds)
    lam1 = model.eigenvalues[0]
    assert np.max(np.abs(scores.mean(axis=0))) <= 1e-8
    corr = np.corrcoef(scores, rowvar=False)
    live = model.eigenvalues > 1e-12
    off = corr[np.ix_(live, live)] - np.eye(int(live.sum()))
    assert np.max(np.abs(off)) < 1e-6
    variances = scores.var(axis=0, ddof=1)
    assert np.max(np.abs(variances - model.eigenvalues)) <= 1e-8 * lam1


def test_scores_match_direct_summation_oracle():
    rng = np.random.default_rng(5)
    ds = helpers.make_dataset(rng.normal(size=(5, 8)))
    model = fpca.fit(ds)
    scores = fpca.transform(model, ds)
    dt = ds.grid.dt
    for i in range(5):
        for j in range(model.n_components):
            oracle = math.fsum(
                (float(ds.values[i, k]) - float(model.mean[k]))
                * float(model.eigenfunctions[j, k]) * dt
                for k in range(8))
            assert scores[i, j] == pytest.approx(oracle, abs=1e-12)


# ---------------------------------------------------------------------------
# inverse_transform (a test oracle)
# ---------------------------------------------------------------------------

def test_inverse_transform_k_zero_gives_mean():
    model, ds, _, _ = _two_point_model()
    scores = fpca.transform(model, ds)
    recon = oracles.inverse_transform(model, scores, k=0)
    assert np.array_equal(recon, np.vstack([model.mean, model.mean]))


def test_inverse_transform_error_monotone_in_k():
    rng = np.random.default_rng(3)
    ds = helpers.make_dataset(rng.normal(size=(9, 12)))
    model = fpca.fit(ds)
    scores = fpca.transform(model, ds)
    dt = ds.grid.dt
    errors = []
    for k in range(model.n_components + 1):
        recon = oracles.inverse_transform(model, scores, k=k)
        errors.append(helpers.quadrature_norm(recon[0] - ds.values[0], dt))
    assert all(errors[k + 1] <= errors[k] + 1e-12 for k in range(len(errors) - 1))
    assert errors[-1] <= 1e-6 * helpers.quadrature_norm(ds.values[0], dt)


def test_inverse_transform_k_out_of_range():
    model, ds, _, _ = _two_point_model()
    scores = fpca.transform(model, ds)
    with pytest.raises(ValueError, match="exceeds"):
        oracles.inverse_transform(model, scores, k=model.n_components + 1)


# ---------------------------------------------------------------------------
# variance_explained
# ---------------------------------------------------------------------------

def test_variance_explained_fractions():
    grid = TimeGrid(6, 0.0, 1.0)
    model = fpca.FpcaModel(grid, np.zeros(6), np.zeros((2, 6)),
                           np.array([3.0, 1.0]), n_train=3)
    fractions, cumulative = fpca.variance_explained(model)
    assert np.array_equal(fractions, [0.75, 0.25])
    assert cumulative[-1] == pytest.approx(1.0, abs=1e-10)


def test_variance_explained_degenerate_error():
    grid = TimeGrid(6, 0.0, 1.0)
    model = fpca.FpcaModel(grid, np.zeros(6), np.zeros((1, 6)),
                           np.array([0.0]), n_train=2)
    with pytest.raises(ValueError, match="no positive eigenvalues"):
        fpca.variance_explained(model)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    ds = helpers.make_dataset(rng.normal(size=(8, 10)) + 3.0)
    model = fpca.fit(ds)
    fpca.save_model(model, tmp_path)
    loaded = fpca.load_model(tmp_path)
    assert loaded.n_train == model.n_train
    assert np.max(np.abs(loaded.eigenvalues - model.eigenvalues)) <= 1e-12
    probe = rng.normal(size=(4, 10))
    before = fpca.transform(model, probe)
    after = fpca.transform(loaded, probe)
    assert np.max(np.abs(before - after)) <= 1e-12


def test_load_missing_model_errors(tmp_path):
    with pytest.raises(FileNotFoundError, match="missing artifact"):
        fpca.load_model(tmp_path / "nowhere")


@pytest.mark.parametrize("name", ["mean.csv", "eigenfunctions.csv"])
@pytest.mark.parametrize("edit", ["drop_rows", "shift_t", "drop_column"])
def test_load_rejects_tables_off_the_grid(tmp_path, name, edit):
    rng = np.random.default_rng(14)
    fpca.save_model(fpca.fit(helpers.make_dataset(rng.normal(size=(8, 10)))),
                    tmp_path)
    path = tmp_path / name
    lines = path.read_text().splitlines()
    if edit == "drop_rows":
        lines = lines[:-5]
    elif edit == "shift_t":
        cells = lines[3].split(",")
        cells[0] = repr(float(cells[0]) + 1e-3)
        lines[3] = ",".join(cells)
    else:
        lines = [line.rsplit(",", 1)[0] for line in lines]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="10-point grid") as info:
        fpca.load_model(tmp_path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("name, drop, differ", [
    ("mean.csv", 1, "column 2 is None, expected 'mean'"),
    ("eigenfunctions.csv", 3, "column 4 is 'fpc_4', expected 'fpc_3'")])
def test_load_states_column_counts_and_first_difference(tmp_path, name, drop,
                                                        differ):
    rng = np.random.default_rng(15)
    fpca.save_model(fpca.fit(helpers.make_dataset(rng.normal(size=(8, 10)))),
                    tmp_path)
    path = tmp_path / name
    rows = [line.split(",") for line in path.read_text().splitlines()]
    width = len(rows[0])
    path.write_text("".join(",".join(cells[:drop] + cells[drop + 1:]) + "\n"
                            for cells in rows))
    with pytest.raises(ValueError) as info:
        fpca.load_model(tmp_path)
    message = str(info.value)
    assert message.startswith(f"{path}: expected {width} columns")
    assert f"got {width - 1} columns" in message
    assert message.endswith(differ)
    # counts and one column, not the headers
    assert message.count("fpc_") == differ.count("fpc_")
