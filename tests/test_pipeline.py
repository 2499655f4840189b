"""End-to-end orchestration: config validation, splitting, ranking checks,
artifact layout, reproducibility, and the CLI."""

import dataclasses
import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from fdexplain import (cli, dataio, explain, fpca, metrics, mlp, pipeline,
                       viz)
from fdexplain._version import __version__
from fdexplain.dataio import (read_dataset, read_json, read_scores,
                              read_table_csv, write_json, write_scores)
from fdexplain.errors import PipelineError
from fdexplain.sim import GROUPINGS, SimParams, TimeGrid

from helpers import grid_fields, make_dataset
from oracles import format_row_ref, ranking_checks_ref

STAGES = ("simulate", "split", "fpca", "transform", "train", "metrics",
          "pfi", "report", "figures")


def _small_mlp(task: str) -> mlp.MlpConfig:
    return mlp.MlpConfig(hidden_sizes=(16, 8), task=task, max_epochs=50,
                         seed=0)


def _smoke_config(outdir: str, seed: int = 42) -> pipeline.RunConfig:
    return pipeline.RunConfig(
        n=300, grid_count=100, seed=seed,
        mlp_configs={t: _small_mlp(pipeline.TARGET_TASK[t])
                     for t in pipeline.TARGETS},
        pfi_replications=5, outdir=outdir)


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("smoke") / "run"
    config = _smoke_config(str(outdir))
    manifest = pipeline.run_pipeline(config)
    return config, manifest, outdir


# ---------------------------------------------------------------------------
# split sizes and split
# ---------------------------------------------------------------------------

def test_split_sizes_reference_values():
    assert pipeline.split_sizes(10000) == (7225, 1500, 1275)
    assert pipeline.split_sizes(100) == (72, 15, 13)
    assert pipeline.split_sizes(10, (0.5, 0.3, 0.2)) == (5, 3, 2)


def test_split_sizes_always_partition():
    for n in range(10, 400, 7):
        sizes = pipeline.split_sizes(n)
        assert sum(sizes) == n
        assert min(sizes) >= 1


def test_split_sizes_empty_split_errors():
    with pytest.raises(ValueError, match="empty split"):
        pipeline.split_sizes(3)


def test_split_ratios_checked_as_the_run_checks_them(tmp_path, capsys):
    with pytest.raises(ValueError, match="sum to 1"):
        pipeline.split_sizes(100, (0.2, 0.2, 0.2))
    with pytest.raises(ValueError, match="sum to 1"):
        pipeline.split_sizes(100, (0.7, 0.2, 0.5))
    with pytest.raises(ValueError, match="positive fractions"):
        pipeline.split_sizes(100, (0.8, 0.3, -0.1))
    data = tmp_path / "dataset.csv"
    assert cli.main(["simulate", "--n", "100", "--seed", "1",
                     "--grid-count", "10", "-o", str(data)]) == 0
    capsys.readouterr()
    assert cli.main(["split", "--data", str(data), "--ratios", "0.2", "0.2",
                     "0.2", "--outdir", str(tmp_path / "splits")]) == 1
    assert "sum to 1" in capsys.readouterr().err
    assert not (tmp_path / "splits").exists()


def test_split_partition_and_provenance():
    rng = np.random.default_rng(0)
    ds = make_dataset(rng.uniform(1.0, 9.0, size=(40, 8)),
                      y3=rng.uniform(size=40))
    train, test, val = pipeline.split(ds, seed=5)
    assert (train.n, test.n, val.n) == (29, 6, 5)
    seen = []
    for part, name in zip((train, test, val), pipeline.SPLIT_NAMES):
        idx = part.provenance["indices"]
        assert part.provenance["split"] == name
        assert idx == sorted(idx)
        assert np.array_equal(part.values, ds.values[idx])
        assert np.array_equal(part.labels.y3, ds.labels.y3[idx])
        seen.extend(idx)
    assert sorted(seen) == list(range(40))


def test_split_deterministic_and_seed_sensitive():
    ds = make_dataset(np.random.default_rng(1).uniform(size=(30, 5)))
    a = pipeline.split(ds, seed=7)[0].provenance["indices"]
    b = pipeline.split(ds, seed=7)[0].provenance["indices"]
    c = pipeline.split(ds, seed=8)[0].provenance["indices"]
    assert a == b
    assert a != c


def test_split_too_small():
    ds = make_dataset(np.ones((2, 4)))
    with pytest.raises(ValueError, match="empty split"):
        pipeline.split(ds)


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

def test_runconfig_validation():
    with pytest.raises(ValueError, match="empty split"):
        pipeline.RunConfig(n=2)
    with pytest.raises(ValueError, match="grid.count must be >= 2, got 1"):
        pipeline.RunConfig(grid_count=1)
    with pytest.raises(ValueError, match="positive fractions"):
        pipeline.RunConfig(ratios=(0.8, 0.3, -0.1))
    with pytest.raises(ValueError, match="sum to 1"):
        pipeline.RunConfig(ratios=(0.5, 0.5, 0.1))
    with pytest.raises(ValueError, match="cover"):
        pipeline.RunConfig(mlp_configs={"y1": _small_mlp("classification")})
    with pytest.raises(ValueError, match="y3 network"):
        pipeline.RunConfig(mlp_configs={
            t: _small_mlp("classification") for t in pipeline.TARGETS})
    with pytest.raises(ValueError, match="pfi_replications"):
        pipeline.RunConfig(pfi_replications=0)


def test_runconfig_bounds_components_by_the_training_signatures():
    """n=20 trains on 14 signatures: their centered matrix has rank 13,
    below the 50 grid points."""
    pipeline.RunConfig(n=20, grid_count=50, figures=("eigenfunction:13",))
    with pytest.raises(ValueError, match="names component 14; a fit of 14 "
                       "training signatures on 50 points has at most 13 "
                       "components"):
        pipeline.RunConfig(n=20, grid_count=50, figures=("mean-pm:14",))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_run_refuses_an_empty_split_before_writing(n, tmp_path, capsys):
    with pytest.raises(ValueError, match="empty split"):
        pipeline.RunConfig(n=n)
    outdir = tmp_path / "run"
    assert cli.main(["run", "--n", str(n), "--grid-count", "20",
                     "--outdir", str(outdir)]) == 1
    assert "empty split" in capsys.readouterr().err
    assert not outdir.exists()


def test_integer_for_a_float_field_is_stored_as_a_float(tmp_path):
    config = pipeline.RunConfig.from_dict({"grid": {"start": -4},
                                           "mlp": {"y1": {"learning_rate": 1}}})
    assert type(config.grid_start) is float
    assert type(config.mlp_configs["y1"].learning_rate) is float
    same = pipeline.RunConfig.from_dict({"grid": {"start": -4}})
    assert pipeline.config_digest(same) == pipeline.config_digest(
        pipeline.RunConfig())
    write_json(tmp_path / "config.json", same.to_dict())
    assert '"start": -4.0' in (tmp_path / "config.json").read_text()
    # built in Python, an integer is stored as that float too
    built = pipeline.RunConfig(grid_start=-4, mlp_configs=dict(
        pipeline.RunConfig().mlp_configs,
        y1=mlp.MlpConfig(learning_rate=1, val_fraction=0)))
    assert pipeline.config_digest(pipeline.RunConfig(grid_start=-4)) == (
        pipeline.config_digest(pipeline.RunConfig()))
    for record, name in [(built, "grid_start"),
                         (built.mlp_configs["y1"], "learning_rate"),
                         (built.mlp_configs["y1"], "val_fraction"),
                         (SimParams(noise_sd=0), "noise_sd"),
                         (built.grid, "start"), (TimeGrid(5, 0, 1), "stop")]:
        assert type(getattr(record, name)) is float, name
    # a bool is not taken for an integer
    assert mlp.MlpConfig(learning_rate=True).learning_rate is True


def test_run_refuses_an_integer_too_large_for_a_float(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('{"n": 50, "figures": [], "grid": {"start": 1'
                    + "0" * 400 + "}}")
    outdir = tmp_path / "run"
    assert cli.main(["run", "--config", str(path),
                     "--outdir", str(outdir)]) == 1
    assert "too large" in capsys.readouterr().err
    assert not outdir.exists()


def test_runconfig_round_trip_and_digest():
    config = _smoke_config("somewhere", seed=9)
    back = pipeline.RunConfig.from_dict(config.to_dict())
    assert back.to_dict() == config.to_dict()
    assert pipeline.config_digest(back) == pipeline.config_digest(config)

    moved = _smoke_config("elsewhere", seed=9)
    assert pipeline.config_digest(moved) == pipeline.config_digest(config)
    other_n = pipeline.RunConfig(n=301)
    assert pipeline.config_digest(other_n) != pipeline.config_digest(
        pipeline.RunConfig(n=300))


def test_runconfig_from_dict_rejects_bad_input():
    with pytest.raises(ValueError, match="unknown config fields"):
        pipeline.RunConfig.from_dict({"bogus": 1})
    with pytest.raises(ValueError, match="schema_version"):
        pipeline.RunConfig.from_dict({"schema_version": 99})
    for bad, record, key in [
            ({"grid": {"stopp": 9}}, "config.grid", "stopp"),
            ({"pfi": {"replicatons": 3}}, "config.pfi", "replicatons"),
            ({"mlp": {"y4": {}}}, "config.mlp", "y4"),
            ({"mlp": {"y1": {"nodes": 3}}}, "config.mlp.y1", "nodes"),
            ({"sim_params": {"bogus": 1}}, "config.sim_params", "bogus"),
            ({"grid_count": 9}, "config", "grid_count")]:
        with pytest.raises(ValueError,
                           match=rf"unknown {record} fields: \['{key}'\]"):
            pipeline.RunConfig.from_dict(bad)
    with pytest.raises(ValueError, match="config.grid must be a JSON object"):
        pipeline.RunConfig.from_dict({"grid": 5})


BAD_KINDS = [
    ({"mlp": {"y1": {"hidden_sizes": [50.7, 40, 30]}}},
     "config.mlp.y1.hidden_sizes"),
    ({"figures": "heatmap"}, "config.figures"),
    ({"pfi": {"replications": True}}, "config.pfi.replications"),
    ({"n": "400"}, "config.n"),
    ({"mlp": {"y1": {"hidden_sizes": 5}}}, "config.mlp.y1.hidden_sizes"),
    ({"sim_params": {"noise_sd": "x"}}, "config.sim_params.noise_sd"),
]


@pytest.mark.parametrize("bad, where", BAD_KINDS,
                         ids=[where for _, where in BAD_KINDS])
def test_config_values_need_the_json_kind_of_their_default(
        bad, where, tmp_path, capsys):
    with pytest.raises(ValueError, match=rf"{where} must be"):
        pipeline.RunConfig.from_dict(bad)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(bad))
    assert cli.main(["run", "--config", str(path),
                     "--outdir", str(tmp_path / "run")]) == 1
    assert where in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def _leaf_keys(d: dict, outer: str = ""):
    for key, value in d.items():
        if isinstance(value, dict):
            yield from _leaf_keys(value, f"{outer}{key}.")
        else:
            yield outer + key


def test_the_config_surface_is_this_list():
    """Every setting a run config holds. A new setting shows up here as an
    edit to these lists."""
    d = pipeline.RunConfig().to_dict()
    networks = d.pop("mlp")
    assert sorted(_leaf_keys(d)) == [
        "figures", "grid.count", "grid.start", "grid.stop", "n", "outdir",
        "pfi.replications", "ratios", "schema_version", "seed",
        "sim_params.amp_jitter_sd", "sim_params.baseline_decay",
        "sim_params.baseline_intensity", "sim_params.center_jitter_sd",
        "sim_params.noise_sd", "sim_params.peak_amplitudes",
        "sim_params.peak_centers", "sim_params.peak_widths",
        "sim_params.width_jitter_sd", "sim_params.y1_boost_gain",
        "sim_params.y1_first_peak_shift", "sim_params.y2_gain",
        "sim_params.y3_gain", "sim_params.y3_timing_span"]
    network_fields = [f.name for f in dataclasses.fields(mlp.MlpConfig)]
    assert network_fields == [
        "hidden_sizes", "task", "learning_rate", "batch_size", "max_epochs",
        "patience", "val_fraction", "seed"]
    assert {t: sorted(c) for t, c in networks.items()} == dict.fromkeys(
        pipeline.TARGETS, sorted(network_fields))


def test_partial_network_entry_overrides_the_runs_network():
    networks = pipeline.RunConfig().mlp_configs
    config = pipeline.RunConfig.from_dict(
        {"mlp": {"y1": {"hidden_sizes": [50, 40, 30]},
                 "y3": {"max_epochs": 50}},
         "grid": {"stop": -1.0}, "pfi": {"replications": 7}})
    assert config.mlp_configs == dict(
        networks, y3=dataclasses.replace(networks["y3"], max_epochs=50))
    assert (config.grid_count, config.grid_start, config.grid_stop) == (
        1000, -4.0, -1.0)
    assert config.pfi_replications == 7


_positive = st.floats(min_value=1e-6, max_value=1e6)
_PEAK_FIELDS = ("peak_centers", "peak_widths", "peak_amplitudes")


def _networks():
    return st.fixed_dictionaries({t: st.builds(
        mlp.MlpConfig,
        hidden_sizes=st.lists(st.integers(1, 512), max_size=4).map(tuple),
        task=st.just(pipeline.TARGET_TASK[t]), learning_rate=_positive,
        batch_size=st.integers(1, 4096),
        max_epochs=st.integers(1, 10**4), patience=st.integers(0, 100),
        val_fraction=st.floats(0.0, 0.99), seed=st.integers(0, 2**32))
        for t in pipeline.TARGETS})


def _run_config(grid, **fields) -> pipeline.RunConfig:
    count, start, stop = grid
    return pipeline.RunConfig(grid_count=count, grid_start=start,
                              grid_stop=stop, **fields)


def _figures(bundles: bool, width: int):
    """Figure lists of the entry grammar that `RunConfig` admits: components
    up to the `width` a fit can reach, `bundles:` entries only if the
    training split holds two bundles, and component pairs only with a
    binary target."""
    entries = [st.just("heatmap"),
               st.sampled_from(GROUPINGS).map("groups:{}".format)]
    if width >= 1:
        component = st.integers(1, width).map(str)
        heads = ("eigenfunction", "mean-pm") + ("bundles",) * bundles
        binary = [t for t in pipeline.TARGETS
                  if pipeline.TARGET_TASK[t] == "classification"]
        entries += [
            st.tuples(st.sampled_from(heads), component).map(":".join),
            st.tuples(st.just("scatter"), component,
                      st.sampled_from(pipeline.TARGETS)).map(":".join),
            st.tuples(st.just("scatter"),
                      st.lists(component, min_size=2, max_size=2)
                      .map(",".join),
                      st.sampled_from(binary)).map(":".join)]
    return st.lists(st.one_of(entries)).map(tuple)


@st.composite
def _run_configs(draw) -> pipeline.RunConfig:
    n = draw(st.integers(20, 10**6))
    ratios = draw(st.tuples(st.floats(0.05, 0.45), st.floats(0.05, 0.45)).map(
        lambda ab: (ab[0], ab[1], 1.0 - ab[0] - ab[1])))
    n_train = pipeline.split_sizes(n, ratios)[0]
    grid = draw(grid_fields(10**5))
    return draw(st.builds(
        _run_config, grid=st.just(grid), n=st.just(n),
        sim=st.builds(SimParams, **{
            f.name: (st.tuples(*[_positive] * 4) if f.name in _PEAK_FIELDS
                     else st.floats(0.0, 10.0))
            for f in dataclasses.fields(SimParams)}),
        ratios=st.just(ratios), seed=st.integers(0, 2**63),
        mlp_configs=_networks(), pfi_replications=st.integers(1, 1000),
        figures=_figures(n_train >= 2 * viz.DEFAULT_BUNDLE_SIZE,
                         min(grid[0], n_train - 1)),
        outdir=st.text()))


# no shrink phase: shrinking a failing config of this many fields takes
# minutes, and the unshrunk example names the fault as well
@settings(max_examples=60, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(_run_configs())
def test_runconfig_json_round_trip_is_identity(config):
    text = json.dumps(config.to_dict())
    assert pipeline.RunConfig.from_dict(json.loads(text)) == config


# ---------------------------------------------------------------------------
# ranking checks
# ---------------------------------------------------------------------------

def _pfi(means) -> explain.PfiReport:
    means = np.asarray(means, dtype=np.float64)
    return explain.PfiReport(importances=means[:, None],
                             baseline_loss=0.1, loss="squared",
                             seed=0, n_obs=5)


GOOD_Y1 = [0.3, 0.25, 0.05] + [0.0] * 9
GOOD_Y2 = [0.4, 0.1, 0.2] + [0.0] * 9
GOOD_Y3 = [0.05, 0.2, 0.01] + [0.0] * 9


def _reports(y1=GOOD_Y1, y2=GOOD_Y2, y3=GOOD_Y3) -> dict:
    return {"y1": _pfi(y1), "y2": _pfi(y2), "y3": _pfi(y3)}


def test_ranking_checks_all_pass():
    checks = pipeline.ranking_checks(_reports())
    assert checks == {
        "y1_top2_is_fpc_1_2": True,
        "y2_top2_contains_fpc_1": True,
        "y2_top3_contains_fpc_3": True,
        "y3_top1_is_fpc_2": True,
        "tail_importance_negligible": True,
    }


def test_ranking_checks_detect_each_failure():
    bad_y1 = pipeline.ranking_checks(
        _reports(y1=[0.3, 0.01, 0.2] + [0.0] * 9))
    assert not bad_y1["y1_top2_is_fpc_1_2"]

    bad_y2_top2 = pipeline.ranking_checks(
        _reports(y2=[0.05, 0.3, 0.2] + [0.0] * 9))
    assert not bad_y2_top2["y2_top2_contains_fpc_1"]

    bad_y2_top3 = pipeline.ranking_checks(
        _reports(y2=[0.4, 0.3, 0.01, 0.2] + [0.0] * 8))
    assert not bad_y2_top3["y2_top3_contains_fpc_3"]

    bad_y3 = pipeline.ranking_checks(
        _reports(y3=[0.2, 0.05, 0.01] + [0.0] * 9))
    assert not bad_y3["y3_top1_is_fpc_2"]


_means = st.lists(st.one_of(st.sampled_from([-0.1, 0.0, 0.02, 0.3]),
                            st.floats(-1.0, 1.0)), min_size=1, max_size=15)


@settings(max_examples=300, deadline=None)
@given(st.fixed_dictionaries({t: _means for t in pipeline.TARGETS}))
def test_ranking_checks_match_the_hand_written_roles(means):
    reports = {t: _pfi(v) for t, v in means.items()}
    assert pipeline.ranking_checks(reports) == ranking_checks_ref(reports)


def test_ranking_checks_tail_rules():
    # positive tail above 5% of the peak
    loud = list(GOOD_Y1)
    loud[10] = 0.02
    assert not pipeline.ranking_checks(
        _reports(y1=loud))["tail_importance_negligible"]
    # magnitude counts: a negative tail entry also violates
    negative = list(GOOD_Y1)
    negative[11] = -0.02
    assert not pipeline.ranking_checks(
        _reports(y1=negative))["tail_importance_negligible"]
    # a target with no positive importance at all cannot pass
    assert not pipeline.ranking_checks(
        _reports(y3=[-0.1] * 12))["tail_importance_negligible"]


# ---------------------------------------------------------------------------
# model evaluation
# ---------------------------------------------------------------------------

def _zero_mlp(task: str) -> mlp.Mlp:
    sizes = np.array([2, 1], dtype=np.int64)
    config = mlp.MlpConfig(hidden_sizes=(), task=task)
    return mlp.Mlp(config, sizes, np.zeros(mlp.n_params(sizes)),
                   np.zeros(2), np.ones(2), np.zeros(2, dtype=bool),
                   mlp.TrainingLog())


def test_evaluate_models_hand_computed():
    # zero-weight nets: classifiers output p=0.5 -> label 1, regressor 0
    ds = make_dataset(np.ones((4, 6)), y1=[1, 0, 1, 0], y2=[0, 0, 0, 0],
                      y3=[0.0, 0.5, 1.0, 0.5])
    X = np.random.default_rng(0).normal(size=(4, 2))
    models = {"y1": _zero_mlp("classification"),
              "y2": _zero_mlp("classification"),
              "y3": _zero_mlp("regression")}
    scores = {name: X for name in pipeline.SPLIT_NAMES}
    splits = {name: ds for name in pipeline.SPLIT_NAMES}
    summary = pipeline.evaluate_models(models, scores, splits)
    row = summary["y1"]["train"]
    assert row["accuracy"] == 0.5
    assert row["f1"] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert not row["f1_degenerate"]
    assert summary["y2"]["test"]["f1_degenerate"]
    assert summary["y2"]["test"]["accuracy"] == 0.0
    reg = summary["y3"]["validation"]
    assert reg["mse"] == 0.375
    assert reg["r2"] == -2.0


def test_build_figure_rejects_unknown_entries():
    with pytest.raises(ValueError, match="unknown figure entry"):
        pipeline.build_figure("sparkline", None, None, None, None, None)
    with pytest.raises(ValueError, match="unknown scatter target"):
        pipeline.build_figure("scatter:1:bogus", None, None, None, None, None)


@pytest.mark.parametrize("figures, message", [
    (["bogus"], "unknown figure entry 'bogus'"),
    (["eigenfunction:x"], "unknown figure entry 'eigenfunction:x'"),
    (["groups:by-y4"], "unknown figure entry 'groups:by-y4'"),
    (["scatter:1,b:y1"], "unknown figure entry 'scatter:1,b:y1'"),
    (["heatmap", "scatter:1:y9"], "unknown scatter target"),
    (["bundles:1"], "need at least 100 signatures, got 72"),
    (list(pipeline.DEFAULT_FIGURES), "need at least 100 signatures, got 72"),
    (["heatmap:zzz"], "unknown figure entry 'heatmap:zzz'"),
    (["heatmap:"], "unknown figure entry 'heatmap:'"),
    *[([entry], f"figure {entry!r} names component 0; components count "
                "from 1")
      for entry in ["eigenfunction:0", "mean-pm:0", "bundles:0",
                    "scatter:0,1:y1", "scatter:2,0:y2", "scatter:00:y3"]],
    (["scatter:1,2:y3"], "figure 'scatter:1,2:y3' pairs two components with "
                         "the continuous target y3; a pair needs a binary "
                         "target"),
    (["scatter:1,2,3:y1"], "figure 'scatter:1,2,3:y1' names 3 components; a "
                           "scatter takes one or two"),
    # 72 training signatures on 50 points: at most 50 components
    (["heatmap", "eigenfunction:150"], "figure 'eigenfunction:150' names "
     "component 150; a fit of 72 training signatures on 50 points has at "
     "most 50 components"),
    (["scatter:1,51:y2"], "figure 'scatter:1,51:y2' names component 51; a "
     "fit of 72 training signatures on 50 points has at most 50 components"),
])
def test_run_refuses_figures_it_cannot_finish_before_writing(
        figures, message, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n": 100, "grid": {"count": 50},
                                "figures": figures}))
    outdir = tmp_path / "run"
    assert cli.main(["run", "--config", str(path),
                     "--outdir", str(outdir)]) == 1
    assert message in capsys.readouterr().err
    assert not outdir.exists()


# ---------------------------------------------------------------------------
# full pipeline runs
# ---------------------------------------------------------------------------

def test_smoke_manifest_and_artifacts(smoke_run):
    config, manifest, outdir = smoke_run
    assert manifest.failed_stage is None
    assert manifest.completed_stages == list(STAGES)
    assert set(manifest.timings) == set(STAGES)
    assert manifest.tool_version == __version__
    # the components above the noise floor of the training split's fit
    assert manifest.realized_width == fpca.truncate(fpca.fit(
        read_dataset(outdir / "data" / "train.csv")), 3).n_components == 17
    assert manifest.config_digest == pipeline.config_digest(config)
    assert set(manifest.stage_seeds) == {
        "simulate", "split", "train-y1", "train-y2", "train-y3",
        "pfi-y1", "pfi-y2", "pfi-y3"}

    expected_keys = {"config", "dataset", "split_train", "split_test",
                     "split_validation", "fpca_model", "variance_explained",
                     "scores_train", "scores_test", "scores_validation",
                     "mlp_y1", "mlp_y2", "mlp_y3", "metrics_json",
                     "pfi_y1", "pfi_y2", "pfi_y3", "report_json",
                     "report_md"}
    assert expected_keys <= set(manifest.artifacts)
    for rel in manifest.artifacts.values():
        assert (outdir / rel).exists(), rel

    on_disk = read_json(outdir / "manifest.json")
    assert on_disk == json.loads(json.dumps(manifest.to_dict()))


def test_the_run_records_hold_these_keys(smoke_run):
    """Every top-level key of a run's manifest.json and report.json. A key
    that comes back or goes away shows up here as an edit to these lists;
    perfbench reads `realized_width`, `completed_stages`, `timings`,
    `ranking_checks`, `deviations` and `metrics`."""
    _, _, outdir = smoke_run
    assert sorted(read_json(outdir / "manifest.json")) == [
        "artifacts", "completed_stages", "config", "config_digest",
        "failed_stage", "realized_width", "schema_version", "stage_seeds",
        "timings", "tool_version"]
    assert sorted(read_json(outdir / "report.json")) == [
        "config_digest", "deviations", "grid_count", "metrics", "n",
        "noise_floor", "pfi", "ranking_checks", "realized_width",
        "schema_version", "split_sizes", "training", "variance_explained"]


def test_smoke_run_holds_the_keys_the_benchmark_reads(smoke_run):
    """The run-directory entries that perfbench's worker and output checks
    read; dropping one breaks the benchmark harness."""
    _, _, outdir = smoke_run
    manifest = read_json(outdir / "manifest.json")
    fpca_meta = read_json(outdir / "fpca" / "fpca.json")
    assert manifest["config"]["pfi"]["replications"] == 5
    assert manifest["realized_width"] == fpca_meta["n_components"] \
        == len(fpca_meta["eigenvalues"])
    assert manifest["completed_stages"] == list(STAGES)
    for target in pipeline.TARGETS:
        log = read_json(outdir / "models" / target / "mlp.json")["log"]
        assert log["epochs_run"] >= 1
        saved = read_json(outdir / "pfi" / f"{target}_pfi.json")
        loaded = explain.load_pfi(outdir / "pfi", target)
        assert np.array(saved["mean_importance"]).tobytes() == \
            loaded.mean_importance.tobytes()
    report = read_json(outdir / "report.json")
    assert {"metrics", "ranking_checks", "deviations"} <= set(report)


def _rendered_by_repr(path: Path) -> bytes:
    """The bytes of the CSV at `path` with every float row re-rendered by
    `format_row_ref`, keeping a figure's comment line and the integer
    y1/y2 labels of a labelled table."""
    text = path.read_text(encoding="utf-8")
    comment = text.startswith("# ")
    header, rows = read_table_csv(path, skiprows=int(comment))
    lines = text.split("\n")[:1 + comment]
    for row in rows:
        if header[-3:] == ["y1", "y2", "y3"]:
            lines.append(f"{format_row_ref(row[:-3])},{int(row[-3])},"
                         f"{int(row[-2])},{format_row_ref(row[-1:])}")
        else:
            lines.append(format_row_ref(row))
    return "".join(line + "\n" for line in lines).encode()


def test_smoke_csvs_are_written_as_repr_writes_them(smoke_run):
    _, _, outdir = smoke_run
    paths = [path for sub in ("data", "fpca", "scores", "models", "pfi",
                              "tables", "figures")
             for path in sorted((outdir / sub).rglob("*.csv"))]
    assert {path.relative_to(outdir).parts[0] for path in paths} == {
        "data", "fpca", "scores", "models", "pfi", "tables", "figures"}
    for path in paths:
        assert path.read_bytes() == _rendered_by_repr(path), path


def test_smoke_report_contents(smoke_run):
    config, manifest, outdir = smoke_run
    report = read_json(outdir / "report.json")
    assert report["split_sizes"] == {"train": 217, "test": 45,
                                     "validation": 38}
    assert report["realized_width"] == manifest.realized_width
    model = fpca.load_model(outdir / "fpca")
    beta = min(216, 100) / max(216, 100)
    assert report["noise_floor"] == {
        "beta": beta, "omega": fpca.omega(beta),
        "median_singular_value": model.threshold / fpca.omega(beta),
        "threshold": model.threshold}
    assert report["config_digest"] == manifest.config_digest
    assert 0.0 < report["variance_explained"]["first"] <= 1.0
    assert report["variance_explained"]["first"] <= \
        report["variance_explained"]["top3_cumulative"] <= 1.0
    for target in pipeline.TARGETS:
        ranking = report["pfi"][target]["ranking_top10"]
        assert len(ranking) == 10
        assert len(set(ranking)) == 10
        assert all(1 <= v <= 100 for v in ranking)
    assert set(report["ranking_checks"]) == {
        "y1_top2_is_fpc_1_2", "y2_top2_contains_fpc_1",
        "y2_top3_contains_fpc_3", "y3_top1_is_fpc_2",
        "tail_importance_negligible"}
    assert report["deviations"] == [
        name for name, ok in report["ranking_checks"].items() if not ok]
    for target in pipeline.TARGETS:
        log = mlp.load_mlp(outdir / "models" / target).log
        assert report["training"][target] == {
            "epochs_run": log.epochs_run, "best_epoch": log.best_epoch,
            "stop_reason": log.stop_reason}
        pfi = explain.load_pfi(outdir / "pfi", target)
        ranking = report["pfi"][target]["ranking_top10"]
        assert report["pfi"][target]["sd_importance_top10"] == [
            float(pfi.sd_importance[j - 1]) for j in ranking]
    md = (outdir / "report.md").read_text()
    assert "| target | epochs run | best epoch | stop reason |" in md
    y3 = report["pfi"]["y3"]
    assert (f"{y3['ranking_top10'][0]} ({y3['mean_importance_top10'][0]:.4g}"
            f" ± {y3['sd_importance_top10'][0]:.4g})") in md


def test_smoke_figures_on_disk(smoke_run):
    config, manifest, outdir = smoke_run
    files = sorted(p.name for p in (outdir / "figures").iterdir())
    assert len(files) == 2 * len(config.figures)
    assert len([f for f in files if f.endswith(".svg")]) == len(config.figures)


def test_load_run_config_round_trip(smoke_run):
    config, _, outdir = smoke_run
    loaded = pipeline.load_run_config(outdir / "config.json")
    assert loaded.to_dict() == config.to_dict()


def _file_map(outdir: Path) -> dict:
    return {str(p.relative_to(outdir)): p
            for p in Path(outdir).rglob("*") if p.is_file()}


def test_smoke_run_writes_exactly_its_artifacts(smoke_run):
    config, _, outdir = smoke_run
    expected = {"config.json", "manifest.json", "report.json", "report.md",
                "fpca/fpca.json", "fpca/mean.csv", "fpca/eigenfunctions.csv",
                "tables/variance_explained.csv", "tables/metrics.json"}
    for name in ("dataset",) + pipeline.SPLIT_NAMES:
        expected |= {f"data/{name}.csv", f"data/{name}.json"}
    expected |= {f"scores/{name}.csv" for name in pipeline.SPLIT_NAMES}
    for t in pipeline.TARGETS:
        n_layers = len(config.mlp_configs[t].hidden_sizes) + 1
        expected |= {f"models/{t}/mlp.json"} | {
            f"models/{t}/layer_{i}.csv" for i in range(n_layers)}
        expected |= {f"pfi/{t}_pfi.csv", f"pfi/{t}_pfi.json"}
    for entry in config.figures:
        name = pipeline._figure_name(entry)
        expected |= {f"figures/{name}.svg", f"figures/{name}.csv"}
    assert set(_file_map(outdir)) == expected


def test_rerun_reproduces_every_artifact(smoke_run, tmp_path):
    config, manifest, outdir = smoke_run
    outdir2 = tmp_path / "rerun"
    manifest2 = pipeline.run_pipeline(_smoke_config(str(outdir2)))

    first = _file_map(outdir)
    second = _file_map(outdir2)
    assert set(first) == set(second)
    for rel in first:
        if rel in ("manifest.json", "config.json"):
            continue
        assert first[rel].read_bytes() == second[rel].read_bytes(), rel

    d1, d2 = manifest.to_dict(), manifest2.to_dict()
    d1.pop("timings")
    d2.pop("timings")
    d1["config"].pop("outdir")
    d2["config"].pop("outdir")
    assert d1 == d2


def test_failed_stage_is_named_and_recorded(tmp_path):
    config = pipeline.RunConfig(
        n=10, grid_count=20, sim=SimParams(noise_sd=float("inf")),
        mlp_configs={t: _small_mlp(pipeline.TARGET_TASK[t])
                     for t in pipeline.TARGETS},
        figures=(), outdir=str(tmp_path / "broken"))
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(PipelineError, match="simulate") as info:
            pipeline.run_pipeline(config)
    assert info.value.stage == "simulate"
    manifest = read_json(tmp_path / "broken" / "manifest.json")
    assert manifest["failed_stage"] == "simulate"
    assert manifest["completed_stages"] == []
    assert manifest["realized_width"] is None


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------

def test_cli_stagewise(tmp_path):
    d = tmp_path
    data = d / "data.csv"
    assert cli.main(["simulate", "--n", "120", "--seed", "5",
                     "--grid-count", "40", "-o", str(data)]) == 0
    ds = read_dataset(data)
    assert ds.n == 120 and ds.grid.count == 40

    assert cli.main(["split", "--data", str(data), "--seed", "3",
                     "--outdir", str(d / "splits")]) == 0
    train = read_dataset(d / "splits" / "train.csv")
    test = read_dataset(d / "splits" / "test.csv")
    val = read_dataset(d / "splits" / "validation.csv")
    assert (train.n, test.n, val.n) == (87, 18, 15)

    assert cli.main(["fpca", "--train", str(d / "splits" / "train.csv"),
                     "--outdir", str(d / "fpca")]) == 0
    assert cli.main(["fpca", "--train", str(d / "splits" / "train.csv"),
                     "--outdir", str(d / "fpca2")]) == 0
    for p in (d / "fpca").iterdir():
        assert p.read_bytes() == (d / "fpca2" / p.name).read_bytes(), p.name

    for name in ("train", "test"):
        assert cli.main(["transform", "--model", str(d / "fpca"),
                         "--data", str(d / "splits" / f"{name}.csv"),
                         "-o", str(d / f"scores_{name}.csv")]) == 0
    scores, labels = read_scores(d / "scores_test.csv")
    assert scores.shape[0] == 18 and labels.y1.size == 18

    assert cli.main(["train", "--scores", str(d / "scores_train.csv"),
                     "--target", "y1", "--hidden", "8",
                     "--max-epochs", "30", "--outdir", str(d / "m_y1")]) == 0
    assert (d / "m_y1" / "mlp.json").exists()

    assert cli.main(["pfi", "--model", str(d / "m_y1"),
                     "--scores", str(d / "scores_test.csv"),
                     "--target", "y1", "--replications", "3",
                     "--seed", "1", "--outdir", str(d / "pfi")]) == 0
    report = explain.load_pfi(d / "pfi", "y1")
    assert report.importances.shape == (scores.shape[1], 3)


def test_cli_transform_refuses_data_on_another_grid(tmp_path, capsys):
    d = tmp_path
    assert cli.main(["simulate", "--n", "20", "--seed", "1", "--grid-count",
                     "40", "-o", str(d / "a.csv")]) == 0
    assert cli.main(["fpca", "--train", str(d / "a.csv"),
                     "--outdir", str(d / "fpca")]) == 0
    assert cli.main(["simulate", "--n", "5", "--seed", "2", "--grid-count",
                     "40", "--grid-start", "-5", "--grid-stop", "1",
                     "-o", str(d / "b.csv")]) == 0
    capsys.readouterr()
    assert cli.main(["transform", "--model", str(d / "fpca"),
                     "--data", str(d / "b.csv"),
                     "-o", str(d / "scores.csv")]) == 1
    err = capsys.readouterr().err
    assert f"error: {d / 'b.csv'}: " in err
    assert "TimeGrid(count=40, start=-5.0, stop=1.0)" in err
    assert "TimeGrid(count=40, start=-4.0, stop=0.0)" in err
    assert not (d / "scores.csv").exists()


def test_cli_chain_reproduces_run_stage_by_stage(smoke_run, tmp_path):
    """Subcommands fed the run's stage seeds and network sizes rewrite the
    run's data, components, scores, networks and importances byte for
    byte."""
    config, manifest, outdir = smoke_run
    seeds, chain = manifest.stage_seeds, tmp_path

    def run(*argv):
        assert cli.main([str(a) for a in argv]) == 0, argv

    run("simulate", "--n", config.n, "--seed", seeds["simulate"],
        "--grid-count", config.grid_count, "-o", chain / "data" / "dataset.csv")
    run("split", "--data", chain / "data" / "dataset.csv",
        "--seed", seeds["split"], "--outdir", chain / "data")
    run("fpca", "--train", chain / "data" / "train.csv",
        "--outdir", chain / "fpca")
    for name in pipeline.SPLIT_NAMES:
        run("transform", "--model", chain / "fpca",
            "--data", chain / "data" / f"{name}.csv",
            "-o", chain / "scores" / f"{name}.csv")
    for target in pipeline.TARGETS:
        net = config.mlp_configs[target]
        run("train", "--scores", chain / "scores" / "train.csv",
            "--target", target, "--hidden", *net.hidden_sizes,
            "--max-epochs", net.max_epochs, "--seed", seeds[f"train-{target}"],
            "--outdir", chain / "models" / target)
        run("pfi", "--model", chain / "models" / target,
            "--scores", chain / "scores" / f"{pipeline.EVAL_SPLIT}.csv",
            "--target", target, "--replications", config.pfi_replications,
            "--seed", seeds[f"pfi-{target}"], "--outdir", chain / "pfi")

    for sub in ("data", "fpca", "scores", "models", "pfi"):
        files = [p for p in (outdir / sub).rglob("*") if p.is_file()]
        assert files, sub
        for path in files:
            rel = path.relative_to(outdir)
            assert (chain / rel).read_bytes() == path.read_bytes(), rel
    assert ((chain / "fpca" / "variance_explained.csv").read_bytes()
            == (outdir / "tables" / "variance_explained.csv").read_bytes())


def test_cli_train_defaults_to_the_runs_network(tmp_path):
    """Without network flags, `train` builds the run's network for the
    target, which separates y1."""
    d = tmp_path
    assert cli.main(["simulate", "--n", "400", "--seed", "3",
                     "-o", str(d / "dataset.csv")]) == 0
    assert cli.main(["split", "--data", str(d / "dataset.csv"), "--seed", "3",
                     "--outdir", str(d / "data")]) == 0
    assert cli.main(["fpca", "--train", str(d / "data" / "train.csv"),
                     "--outdir", str(d / "fpca")]) == 0
    for name in ("train", "test"):
        assert cli.main(["transform", "--model", str(d / "fpca"),
                         "--data", str(d / "data" / f"{name}.csv"),
                         "-o", str(d / f"scores_{name}.csv")]) == 0
    assert cli.main(["train", "--scores", str(d / "scores_train.csv"),
                     "--target", "y1", "--seed", "3",
                     "--outdir", str(d / "y1")]) == 0
    model = mlp.load_mlp(d / "y1")
    scores, labels = read_scores(d / "scores_test.csv")
    assert metrics.accuracy(model.predict_labels(scores), labels.y1) >= 0.95
    assert model.config == dataclasses.replace(
        pipeline.RunConfig().mlp_configs["y1"], seed=3)


def test_cli_report_and_figures_rebuild_byte_identical(smoke_run):
    _, _, outdir = smoke_run
    before_report = (outdir / "report.json").read_bytes()
    before_md = (outdir / "report.md").read_bytes()
    figdir = outdir / "figures"
    before_figs = {p.name: p.read_bytes() for p in figdir.iterdir()}

    assert cli.main(["report", "--run", str(outdir)]) == 0
    assert (outdir / "report.json").read_bytes() == before_report
    assert (outdir / "report.md").read_bytes() == before_md

    assert cli.main(["figures", "--run", str(outdir)]) == 0
    after_figs = {p.name: p.read_bytes() for p in figdir.iterdir()}
    assert after_figs == before_figs


def test_cli_figures_refuses_a_figure_list_before_drawing(smoke_run, tmp_path,
                                                        capsys):
    """A run whose figure list ends in an unknown entry is refused when its
    config is read, before any figure is drawn."""
    rundir = tmp_path / "run"
    shutil.copytree(smoke_run[2], rundir)
    shutil.rmtree(rundir / "figures")
    path = rundir / "config.json"
    meta = read_json(path)
    meta["figures"] = ["heatmap", "eigenfunction:2", "eigenfunction:x"]
    write_json(path, meta)
    message = f"{path}: unknown figure entry 'eigenfunction:x'"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        pipeline.load_run_config(path)
    capsys.readouterr()
    assert cli.main(["figures", "--run", str(rundir)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (rundir / "figures").exists()


def test_run_refuses_a_component_beyond_the_fit_before_training(tmp_path,
                                                               capsys):
    """n=100 leaves 72 training signatures on a 50-point grid, so the config
    admits component 50; but noiseless signatures span only a few
    components above the rank cutoff, so the fit realizes fewer: component
    50 fails the fpca stage, and nothing after it runs."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "n": 100, "grid": {"count": 50},
        "sim_params": dataclasses.asdict(SimParams().noiseless()),
        "figures": ["heatmap", "eigenfunction:50"]}))
    outdir = tmp_path / "run"
    assert cli.main(["run", "--config", str(path),
                     "--outdir", str(outdir)]) == 1
    manifest = read_json(outdir / "manifest.json")
    width = manifest["realized_width"]
    assert width < 50
    assert capsys.readouterr().err == (
        "error: stage 'fpca' failed: figure 'eigenfunction:50' names "
        f"component 50; the model has {width} components\n")
    assert manifest["failed_stage"] == "fpca"
    assert manifest["completed_stages"] == ["simulate", "split"]
    assert not (outdir / "models").exists()
    assert not (outdir / "figures").exists()


def test_cli_figures_refuses_a_component_beyond_the_fit_before_drawing(
        smoke_run, tmp_path, capsys):
    """The config admits component 51 of a 100-point grid; the saved model,
    which keeps the components above the noise floor, does not."""
    rundir = tmp_path / "run"
    shutil.copytree(smoke_run[2], rundir)
    shutil.rmtree(rundir / "figures")
    width = fpca.load_model(rundir / "fpca").n_components
    path = rundir / "config.json"
    meta = read_json(path)
    meta["figures"] = ["heatmap", "scatter:1,51:y1"]
    write_json(path, meta)
    assert cli.main(["figures", "--run", str(rundir)]) == 1
    assert capsys.readouterr().err == (
        "error: figure 'scatter:1,51:y1' names component 51; the model "
        f"has {width} components\n")
    assert not (rundir / "figures").exists()


def _retired(keys: str, value):
    """An edit setting the dotted path `keys` of a JSON object to `value`."""
    *outer, key = keys.split(".")

    def edit(meta):
        for name in outer:
            meta = meta[name]
        meta[key] = value
    return edit


@pytest.mark.parametrize("name, edit, message, commands", [
    ("config.json", _retired("bundle_size", 50),
     "unknown config fields: ['bundle_size']", ("report", "figures")),
    ("config.json", _retired("pfi.split", "test"),
     "unknown config.pfi fields: ['split']", ("report", "figures")),
    ("config.json", _retired("mlp.y1.standardize", False),
     "unknown config.mlp.y1 fields: ['standardize']", ("report", "figures")),
    # `figures --run` reads no network
    ("models/y1/mlp.json", _retired("config.beta1", 0.9),
     "unknown MlpConfig fields: ['beta1']", ("report",)),
    ("models/y1/mlp.json", _retired("config.standardize", False),
     "unknown MlpConfig fields: ['standardize']", ("report",))],
    ids=["bundle-size", "pfi-split", "mlp-y1-standardize", "mlp-beta1",
         "mlp-standardize"])
def test_cli_refuses_a_setting_that_is_now_a_constant(
        smoke_run, tmp_path, capsys, name, edit, message, commands):
    """A run directory that still records a retired setting is refused by
    name, with its file, before anything is written."""
    rundir = tmp_path / "run"
    shutil.copytree(smoke_run[2], rundir)
    for written in ("report.json", "report.md", "figures"):
        shutil.rmtree(rundir / written, ignore_errors=True)
        (rundir / written).unlink(missing_ok=True)
    path = rundir / name
    meta = read_json(path)
    edit(meta)
    write_json(path, meta)
    before = sorted(p for p in rundir.rglob("*"))
    for command in commands:
        capsys.readouterr()
        assert cli.main([command, "--run", str(rundir)]) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert sorted(p for p in rundir.rglob("*")) == before


def test_cli_report_ignores_the_saved_summaries(smoke_run, tmp_path):
    """`report --run` ranks from the importance tables, so an edited mean
    in a `<t>_pfi.json` leaves the rebuilt report as the run wrote it."""
    _, _, outdir = smoke_run
    rundir = tmp_path / "run"
    shutil.copytree(outdir, rundir)
    path = rundir / "pfi" / "y3_pfi.json"
    meta = read_json(path)
    meta["mean_importance"][1] = 1.0
    write_json(path, meta)
    assert cli.main(["report", "--run", str(rundir)]) == 0
    for name in ("report.json", "report.md"):
        assert (rundir / name).read_bytes() == (outdir / name).read_bytes(), \
            name


def test_cli_transform_refuses_eigenvalues_that_miss_a_component(
        smoke_run, tmp_path, capsys):
    _, _, outdir = smoke_run
    model = tmp_path / "fpca"
    shutil.copytree(outdir / "fpca", model)
    meta = read_json(model / "fpca.json")
    meta["eigenvalues"] = meta["eigenvalues"][:-5]
    write_json(model / "fpca.json", meta)
    out = tmp_path / "scores.csv"
    capsys.readouterr()
    assert cli.main(["transform", "--model", str(model),
                     "--data", str(outdir / "data" / "test.csv"),
                     "-o", str(out)]) == 1
    assert str(model / "eigenfunctions.csv") in capsys.readouterr().err
    assert not out.exists()


def test_cli_run_with_config_json(tmp_path):
    config = pipeline.RunConfig(
        n=150, grid_count=40, seed=7,
        mlp_configs={t: mlp.MlpConfig(hidden_sizes=(8,),
                                      task=pipeline.TARGET_TASK[t],
                                      max_epochs=30)
                     for t in pipeline.TARGETS},
        pfi_replications=3, outdir="ignored")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_dict()))
    rundir = tmp_path / "cli_run"
    # given flags override the file's values, absent ones keep them
    assert cli.main(["run", "--config", str(path), "--n", "160",
                     "--seed", "9", "--grid-count", "30",
                     "--outdir", str(rundir)]) == 0
    manifest = read_json(rundir / "manifest.json")
    assert manifest["failed_stage"] is None
    assert manifest["config"]["outdir"] == str(rundir)
    assert (manifest["config"]["n"], manifest["config"]["seed"]) == (160, 9)
    assert manifest["config"]["grid"]["count"] == 30
    assert manifest["config"]["pfi"]["replications"] == 3
    assert (rundir / "report.md").exists()


def test_cli_pfi_refuses_a_network_of_another_task(tmp_path, capsys):
    mlp.save_mlp(_zero_mlp("classification"), tmp_path / "y1")
    ds = make_dataset(np.ones((6, 4)), y1=[0, 1] * 3, y3=np.linspace(0, 1, 6))
    write_scores(tmp_path / "scores.csv",
                 np.random.default_rng(3).normal(size=(6, 2)), ds.labels)
    args = ["pfi", "--model", str(tmp_path / "y1"),
            "--scores", str(tmp_path / "scores.csv"), "--replications", "2",
            "--outdir", str(tmp_path / "pfi")]
    assert cli.main(args + ["--target", "y3"]) == 1
    err = capsys.readouterr().err
    assert "y3" in err and "regression" in err and "classification" in err
    assert not (tmp_path / "pfi" / "y3_pfi.json").exists()
    assert cli.main(args + ["--target", "y1"]) == 0


def test_cli_fpca_refuses_signatures_that_do_not_vary_before_writing(
        tmp_path, capsys):
    data = tmp_path / "flat.csv"
    dataio.write_dataset(make_dataset(np.full((6, 10), 2.0)), data)
    out = tmp_path / "out"
    out.mkdir()
    capsys.readouterr()
    assert cli.main(["fpca", "--train", str(data), "--outdir", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: the 6 training signatures do not vary: every eigenvalue "
        "is 0\n")
    assert list(out.iterdir()) == []


def test_cli_missing_artifact_reports_and_fails(tmp_path, capsys):
    assert cli.main(["figures", "--run", str(tmp_path)]) == 1
    assert "missing artifact" in capsys.readouterr().err


def _transform_names_broken_model(tmp_path, capsys, edit):
    """`transform` on a fitted model whose fpca.json `edit` rewrote fails
    with an `error:` line naming that file."""
    data = tmp_path / "data.csv"
    assert cli.main(["simulate", "--n", "12", "--seed", "1",
                     "--grid-count", "20", "-o", str(data)]) == 0
    assert cli.main(["fpca", "--train", str(data),
                     "--outdir", str(tmp_path / "fpca")]) == 0
    meta = tmp_path / "fpca" / "fpca.json"
    meta.write_text(edit(meta.read_text()))
    capsys.readouterr()
    assert cli.main(["transform", "--model", str(tmp_path / "fpca"),
                     "--data", str(data),
                     "-o", str(tmp_path / "scores.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(meta) in err
    return err


def test_cli_names_a_truncated_model_file(tmp_path, capsys):
    _transform_names_broken_model(tmp_path, capsys, lambda text: text[:21])


def test_cli_names_a_model_file_with_an_empty_grid(tmp_path, capsys):
    _transform_names_broken_model(
        tmp_path, capsys,
        lambda text: json.dumps(dict(json.loads(text), grid={})))


@pytest.mark.parametrize("entry, key, value", [
    (None, "n_train", None), (None, "n_train", "abc"), (None, "n_train", 2.5),
    ("grid", "count", None), ("grid", "count", 2.5)],
    ids=["None", "abc", "2.5", "grid-count-None", "grid-count-2.5"])
def test_cli_names_a_model_file_whose_n_train_is_not_an_integer(
        tmp_path, capsys, entry, key, value):
    def edit(text):
        meta = json.loads(text)
        (meta[entry] if entry else meta)[key] = value
        return json.dumps(meta)
    err = _transform_names_broken_model(tmp_path, capsys, edit)
    name = f"{entry}.{key}" if entry else key
    assert f"{name} must be an integer" in err and "Traceback" not in err


@pytest.mark.parametrize("key, value", [
    ("replications", None), ("replications", "abc"), ("replications", 2.5),
    ("loss", "hinge"), ("baseline_loss", float("nan"))])
def test_cli_report_names_a_pfi_file_with_a_value_of_another_kind(
        smoke_run, tmp_path, capsys, key, value):
    _, _, outdir = smoke_run
    rundir = tmp_path / "run"
    shutil.copytree(outdir, rundir)
    path = rundir / "pfi" / "y2_pfi.json"
    write_json(path, dict(read_json(path), **{key: value}))
    capsys.readouterr()
    assert cli.main(["report", "--run", str(rundir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{path}: {key} must be" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name, edit, message", [
    ("models/y1/mlp.json",
     lambda meta: meta["config"].update(learning_rate=None),
     "MlpConfig.learning_rate must be a number, got None"),
    ("models/y1/mlp.json",
     lambda meta: meta["config"].update(learning_rate=-1.0),
     "learning rate must be positive"),
    ("config.json", lambda meta: meta["grid"].update(count=1),
     "grid.count must be >= 2, got 1"),
    ("config.json", lambda meta: meta["grid"].update(start=0.0, stop=-4.0),
     "grid needs finite start < stop, got start 0.0 and stop -4.0"),
    ("config.json", lambda meta: meta["grid"].update(start=float("nan")),
     "config.grid.start must be a finite number, got nan"),
    ("config.json", lambda meta: meta["grid"].update(stop=float("inf")),
     "config.grid.stop must be a finite number, got inf"),
    ("config.json", lambda meta: meta.update(ratios=[0.5, 0.3, 0.3]),
     "ratios must sum to 1 within 1e-12")],
    ids=["mlp-learning-rate-null", "mlp-learning-rate-negative",
         "config-grid-count", "config-grid-reversed", "config-grid-start-nan",
         "config-grid-stop-inf", "config-ratios"])
def test_cli_report_names_the_file_of_a_bad_config_value(
        smoke_run, tmp_path, capsys, name, edit, message):
    rundir = tmp_path / "run"
    shutil.copytree(smoke_run[2], rundir)
    path = rundir / name
    meta = read_json(path)
    edit(meta)
    write_json(path, meta)
    capsys.readouterr()
    assert cli.main(["report", "--run", str(rundir)]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_cli_transform_refuses_a_nan_eigenfunction(smoke_run, tmp_path,
                                                  capsys):
    _, _, outdir = smoke_run
    model = tmp_path / "fpca"
    shutil.copytree(outdir / "fpca", model)
    path = model / "eigenfunctions.csv"
    lines = path.read_text().splitlines()
    lines[3] = lines[3].rpartition(",")[0] + ",nan"
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "scores.csv"
    capsys.readouterr()
    assert cli.main(["transform", "--model", str(model),
                     "--data", str(outdir / "data" / "test.csv"),
                     "-o", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {path}: non-finite value in data row 3")
    assert not out.exists()


def test_cli_pfi_refuses_a_nan_weight(smoke_run, tmp_path, capsys):
    _, _, outdir = smoke_run
    model = tmp_path / "y1"
    shutil.copytree(outdir / "models" / "y1", model)
    path = model / "layer_0.csv"
    lines = path.read_text().splitlines()
    lines[2] = "nan," + lines[2].partition(",")[2]
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["pfi", "--model", str(model), "--scores",
                     str(outdir / "scores" / "test.csv"), "--target", "y1",
                     "--outdir", str(tmp_path / "pfi")]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {path}: non-finite value in data row 2, column 1")
    assert not (tmp_path / "pfi").exists()


def _key_paths(shape: dict, outer: tuple = ()):
    """Every key of a loader's shape as a path from the top, nested keys
    included."""
    for key, kind in shape.items():
        yield outer + (key,)
        if isinstance(kind, dict):
            yield from _key_paths(kind, outer + (key,))


def _cli_reader(command: str):
    """Run `fdexplain <command> --run <dir>` without `cli.main`'s error
    handling, so that whatever it raises escapes unchanged."""
    def read(rundir, path):
        args = cli.build_parser().parse_args([command, "--run", str(rundir)])
        args.fn(args)
    return read


@pytest.mark.parametrize("name, shape, read", [
    ("data/dataset.json", dataio._SIDECAR, _cli_reader("figures")),
    ("fpca/fpca.json", fpca._JSON_KINDS, _cli_reader("report")),
    ("models/y3/mlp.json", mlp._JSON_KINDS, _cli_reader("report")),
    ("pfi/y2_pfi.json", explain._JSON_KINDS, _cli_reader("report")),
    ("tables/metrics.json", pipeline.METRICS_KINDS, _cli_reader("report")),
    ("figures/scatter_1_2_y1.csv", viz._FIGURE_META,
     lambda rundir, path: viz.load_figure_spec(path))],
    ids=["sidecar", "fpca", "mlp", "pfi", "metrics", "figure"])
def test_each_json_key_set_to_null_is_refused_by_name(smoke_run, tmp_path,
                                                      name, shape, read):
    """Each key of the shape a loader declares, nested keys included, set
    to null in turn: the loader, or the command that reads the file,
    raises a ValueError that starts with the file and names the key."""
    rundir = tmp_path / "run"
    shutil.copytree(smoke_run[2], rundir)
    path = rundir / name
    text = path.read_text()
    # a figure CSV carries its JSON on the first line, after "# "
    figure = path.suffix == ".csv"
    doc, _, rows = text[2:].partition("\n") if figure else (text, "", "")
    for keys in _key_paths(shape):
        meta = json.loads(doc)
        entry = meta
        for key in keys[:-1]:
            entry = entry[key]
        entry[keys[-1]] = None
        edited = json.dumps(meta)
        path.write_text(f"# {edited}\n{rows}" if figure else edited)
        with pytest.raises(ValueError) as info:
            read(rundir, path)
        assert str(info.value).startswith(f"{path}: {'.'.join(keys)}"), keys


def test_cli_report_refuses_a_metrics_file_with_a_string_for_a_bool(
        smoke_run, tmp_path, capsys):
    rundir = tmp_path / "run"
    shutil.copytree(smoke_run[2], rundir)
    path = rundir / "tables" / "metrics.json"
    meta = read_json(path)
    meta["y1"]["test"]["f1_degenerate"] = "no"
    write_json(path, meta)
    report = (rundir / "report.json").read_bytes()
    assert cli.main(["report", "--run", str(rundir)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: y1.test.f1_degenerate must be a bool, got 'no'\n")
    assert (rundir / "report.json").read_bytes() == report


def test_cli_run_refuses_a_reversed_grid_before_writing(tmp_path, capsys):
    path = tmp_path / "config.json"
    write_json(path, {"grid": {"start": 0.0, "stop": -4.0}})
    outdir = tmp_path / "run"
    assert cli.main(["run", "--config", str(path),
                     "--outdir", str(outdir)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: grid needs finite start < stop, got start 0.0 and "
        f"stop -4.0\n")
    assert not outdir.exists()


def test_cli_split_names_a_sidecar_with_a_nan_grid_start(tmp_path, capsys):
    data = tmp_path / "dataset.csv"
    assert cli.main(["simulate", "--n", "20", "--grid-count", "10",
                     "-o", str(data)]) == 0
    sidecar = dataio.sidecar_path(data)
    meta = read_json(sidecar)
    meta["grid"]["start"] = float("nan")
    write_json(sidecar, meta)
    capsys.readouterr()
    assert cli.main(["split", "--data", str(data),
                     "--outdir", str(tmp_path / "splits")]) == 1
    assert capsys.readouterr().err == (
        f"error: {sidecar}: grid.start must be a finite number, got nan\n")
    assert not (tmp_path / "splits").exists()


@pytest.mark.parametrize("params, message", [
    ({"noise_sd": None}, "SimParams.noise_sd must be a number, got None"),
    ({"noise_sd": -1.0}, "noise_sd must be non-negative")],
    ids=["null", "negative"])
def test_cli_simulate_names_a_params_file_with_a_bad_value(
        tmp_path, capsys, params, message):
    path = tmp_path / "params.json"
    write_json(path, params)
    out = tmp_path / "dataset.csv"
    assert cli.main(["simulate", "--n", "5", "--params", str(path),
                     "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not out.exists()


def test_cli_simulate_refuses_a_step_below_the_float_spacing(tmp_path,
                                                            capsys):
    out = tmp_path / "dataset.csv"
    assert cli.main(["simulate", "--n", "5", "--grid-start", "1",
                     "--grid-stop", "1.0000000000001", "-o", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: grid step 1.0002009230857266e-16 from start 1.0 to stop "
        "1.0000000000001 must exceed the float spacing")
    assert not any(tmp_path.iterdir())


def test_cli_rejects_bad_dataset_path(tmp_path, capsys):
    assert cli.main(["split", "--data", str(tmp_path / "nope.csv"),
                     "--outdir", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.slow
def test_run_narrow_master_seed_91_passes_criterion_5(tmp_path):
    """The benchmark's run-narrow config (n=600, 100-point grid) at the
    master seed whose regressor, unclipped, extrapolates on test rows
    beyond the training scores: train R^2 0.972 against test 0.866 with
    the noise-floor width. Clipped to the training range, the gap stays
    within criterion 5's 0.10."""
    config = pipeline.RunConfig(n=600, grid_count=100, seed=91, figures=(),
                                outdir=str(tmp_path / "run"))
    manifest = pipeline.run_pipeline(config)
    m = read_json(tmp_path / "run" / "report.json")["metrics"]
    assert manifest.realized_width == 17
    for target in ("y1", "y2"):
        assert m[target]["test"]["accuracy"] >= 0.95, target
        assert m[target]["test"]["f1"] >= 0.95, target
    r2_train, r2_test = m["y3"]["train"]["r2"], m["y3"]["test"]["r2"]
    assert r2_test >= 0.80, r2_test
    assert abs(r2_train - r2_test) <= 0.10, (r2_train, r2_test)
