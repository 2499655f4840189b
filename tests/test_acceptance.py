"""Acceptance gate: ten product-level criteria.

Each test prints exactly one `[criterion NN] <description>: PASS/FAIL`
line. Criteria 3, 5, 8, 9, and 10 share one full-scale run (n=2000,
1000-point grid, master seed 42) executed with a relative output
directory; criterion 9 repeats it from a different working directory
and demands byte-identical artifacts. Those five carry the `slow` marker,
so `pytest -m "not slow"` runs everything else in seconds.
"""

import os
import time
import xml.etree.ElementTree as ET
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest

from fdexplain import explain, fpca, mlp, pipeline, viz
from fdexplain.dataio import read_json

import helpers
import oracles
from helpers import make_dataset

TARGETS = ("y1", "y2", "y3")


@contextmanager
def _criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] {desc}: FAIL")
        raise
    print(f"[criterion {num:02d}] {desc}: PASS")


def _run_full_scale(base):
    """Execute the default full-scale config from inside `base` with a
    relative outdir, so artifact bytes cannot depend on the path."""
    config = pipeline.RunConfig(outdir="run")
    base.mkdir(parents=True, exist_ok=True)
    old = os.getcwd()
    os.chdir(base)
    start = time.perf_counter()
    try:
        manifest = pipeline.run_pipeline(config)
    finally:
        os.chdir(old)
    return manifest, time.perf_counter() - start


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    base = tmp_path_factory.mktemp("full_a")
    manifest, elapsed = _run_full_scale(base)
    outdir = base / "run"
    return SimpleNamespace(outdir=outdir, manifest=manifest, elapsed=elapsed,
                           report=read_json(outdir / "report.json"))


def test_criterion_01_split_fidelity():
    with _criterion(1, "n=10000 splits exactly 7225/1500/1275"):
        start = time.perf_counter()
        assert pipeline.split_sizes(10000) == (7225, 1500, 1275)
        ds = make_dataset(
            np.random.default_rng(0).uniform(1.0, 2.0, size=(10000, 4)))
        parts = pipeline.split(ds, seed=42)
        assert tuple(p.n for p in parts) == (7225, 1500, 1275)
        assert time.perf_counter() - start < 1.0


def test_criterion_02_fpca_oracle_suite():
    with _criterion(2, "decomposition matches dense eigensolver oracle "
                       "on 50 random instances"):
        start = time.perf_counter()
        rng = np.random.default_rng(20240814)
        for _ in range(50):
            helpers.check_fpca_instance(rng)
        assert time.perf_counter() - start < 10.0


@pytest.mark.slow
def test_criterion_03_variance_concentration(desk):
    with _criterion(3, "first component >= 80%, top three >= 95% of "
                       "variance at full scale"):
        ve = desk.report["variance_explained"]
        assert ve["first"] >= 0.80, ve
        assert ve["top3_cumulative"] >= 0.95, ve
        stage_time = sum(desk.manifest.timings[s] for s in
                         ("simulate", "split", "fpca", "transform"))
        assert stage_time < 120.0, stage_time


def test_criterion_04_gradient_correctness():
    with _criterion(4, "analytic gradients match central differences "
                       "for both tasks at depth 50/40/30"):
        start = time.perf_counter()
        rng = np.random.default_rng(0)
        X = rng.normal(size=(10, 4))
        cases = (("classification",
                  rng.integers(0, 2, size=10).astype(np.float64)),
                 ("regression", rng.normal(size=10)))
        for task, y in cases:
            config = mlp.MlpConfig(hidden_sizes=(50, 40, 30), task=task,
                                   seed=1)
            err = oracles.gradient_check(config, X, y)
            assert err < 1e-4, (task, err)
        assert time.perf_counter() - start < 30.0


@pytest.mark.slow
def test_criterion_05_model_quality(desk):
    with _criterion(5, "classifiers reach 0.95 accuracy/F1, regressor "
                       "0.80 R2 with bounded train/test gap"):
        m = desk.report["metrics"]
        for target in ("y1", "y2"):
            assert m[target]["test"]["accuracy"] >= 0.95, target
            assert m[target]["test"]["f1"] >= 0.95, target
        r2_train = m["y3"]["train"]["r2"]
        r2_test = m["y3"]["test"]["r2"]
        assert r2_test >= 0.80, r2_test
        assert abs(r2_train - r2_test) <= 0.10, (r2_train, r2_test)
        assert desk.elapsed < 600.0, desk.elapsed


def test_criterion_06_pfi_oracle_equivalence():
    with _criterion(6, "sampled importance within 3 SE of the exhaustive "
                       "permutation oracle"):
        start = time.perf_counter()
        y = np.array([0.0, 1.0, 2.0, 3.0])
        X = np.column_stack([y, np.ones(4)])
        predict = lambda Z: Z[:, 0]  # noqa: E731
        exact = oracles.exhaustive_importance(
            predict, X, y, lambda p, a: (p - a) ** 2, 0)
        report = explain.permutation_importance(predict, X, y, "squared",
                                                replications=5000, seed=3)
        se = report.sd_importance[0] / np.sqrt(report.replications)
        assert abs(report.mean_importance[0] - exact) <= 3.0 * se, \
            (report.mean_importance[0], exact, se)
        assert time.perf_counter() - start < 10.0


def test_criterion_07_pfi_zero_property():
    with _criterion(7, "a provably ignored feature scores exactly zero "
                       "in every replication"):
        start = time.perf_counter()
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 2))
        y = 3.0 * X[:, 0]
        report = explain.permutation_importance(
            lambda Z: 3.0 * Z[:, 0], X, y, "squared", replications=10,
            seed=0)
        assert np.all(report.importances[1] == 0.0)
        assert time.perf_counter() - start < 1.0


@pytest.mark.slow
def test_criterion_08_importance_ranking_reproduction(desk):
    with _criterion(8, "component roles recovered: y1 led by 1 and 2, "
                       "y2 keeps 1 and 3, y3 led by 2, tail negligible"):
        assert desk.report["deviations"] == [], desk.report["deviations"]
        assert all(desk.report["ranking_checks"].values())

        # verify independently from the saved importance tables
        reports = {t: explain.load_pfi(desk.outdir / "pfi", t)
                   for t in TARGETS}
        ranks = {t: explain.rank_features(r).tolist()
                 for t, r in reports.items()}
        assert set(ranks["y1"][:2]) == {1, 2}, ranks["y1"][:3]
        assert 1 in ranks["y2"][:2], ranks["y2"][:3]
        assert 3 in ranks["y2"][:3], ranks["y2"][:3]
        assert ranks["y3"][0] == 2, ranks["y3"][:3]
        # the networks read the components above the noise floor, so the
        # tail check covers components 11..K (K = 20 here), not 11..1000
        for target, report in reports.items():
            means = report.mean_importance
            peak = means.max()
            assert peak > 0.0, target
            assert np.max(np.abs(means[10:])) < 0.05 * peak, target

        # the deviation flag must actually trip on a wrong ordering
        swapped = dict(reports)
        swapped["y3"] = explain.PfiReport(
            importances=np.array([[0.5], [0.1]]), baseline_loss=0.1,
            loss="squared", seed=0, n_obs=4)
        assert not pipeline.ranking_checks(swapped)["y3_top1_is_fpc_2"]
        assert desk.elapsed < 600.0, desk.elapsed


@pytest.mark.slow
def test_criterion_09_determinism(desk, tmp_path_factory):
    with _criterion(9, "re-running the identical config from another "
                       "directory reproduces every artifact byte"):
        start = time.perf_counter()
        base2 = tmp_path_factory.mktemp("full_b")
        manifest2, _ = _run_full_scale(base2)
        outdir2 = base2 / "run"

        first = {p.relative_to(desk.outdir): p
                 for p in desk.outdir.rglob("*") if p.is_file()}
        second = {p.relative_to(outdir2): p
                  for p in outdir2.rglob("*") if p.is_file()}
        assert set(first) == set(second)
        for rel in sorted(first):
            if rel.name == "manifest.json":
                continue
            assert first[rel].read_bytes() == second[rel].read_bytes(), rel

        d1, d2 = desk.manifest.to_dict(), manifest2.to_dict()
        d1.pop("timings")
        d2.pop("timings")
        assert d1 == d2
        assert time.perf_counter() - start < 2.0 * desk.elapsed


@pytest.mark.slow
def test_criterion_10_visualization_contracts(desk):
    with _criterion(10, "SVGs parse as XML, variation curves mirror "
                        "exactly, bundles are disjoint 50/50"):
        start = time.perf_counter()
        figdir = desk.outdir / "figures"
        svgs = sorted(figdir.glob("*.svg"))
        assert len(svgs) == 15, len(svgs)
        for path in svgs:
            root = ET.fromstring(path.read_text())
            assert root.tag.endswith("svg"), path.name

        model = fpca.load_model(desk.outdir / "fpca")
        for j in (1, 2, 3):
            spec = viz.load_figure_spec(figdir / f"mean_pm_{j}.csv")
            c = float(spec.extras["multiplier"])
            offset = (c * np.sqrt(float(model.eigenvalues[j - 1]))) \
                * model.eigenfunctions[j - 1]
            assert np.array_equal(spec.series[0].values, model.mean)
            assert np.array_equal(spec.series[1].values,
                                  model.mean + offset), j
            assert np.array_equal(spec.series[2].values,
                                  model.mean - offset), j

        for j in (1, 2):
            spec = viz.load_figure_spec(figdir / f"bundles_{j}.csv")
            bottom = set(spec.extras["bottom_indices"])
            top = set(spec.extras["top_indices"])
            assert len(bottom) == len(top) == 50
            assert not bottom & top
        assert time.perf_counter() - start < 60.0
        assert desk.manifest.timings["figures"] < 60.0
