"""The seed sweep's check margins on fixed, hand-computed summaries."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from fdexplain import explain, pipeline

_path = Path(__file__).resolve().parents[1] / "studies" / "ranking_sweep.py"
_spec = importlib.util.spec_from_file_location("ranking_sweep", _path)
ranking_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ranking_sweep)

REPS = 25
TAIL = [0.0] * 8


def _summary(mean, sd):
    return {"mean_importance": mean, "sd_importance": sd, "replications": REPS}


def _summaries(y1):
    return {
        # ranks 2, 1, 3 (1 and 3 tie, the smaller index first)
        "y2": _summary([0.3, 0.5, 0.3, 0.2] + TAIL, [0.0] * 12),
        # ranks 1, 2 (a tie broken toward the smaller index), then 3
        "y3": _summary([0.4, 0.4, 0.1, 0.0] + TAIL, [0.5, 0.5] + [0.0] * 10),
        "y1": y1,
    }


@pytest.mark.parametrize("means, weaker", [
    ([0.5, 0.6, 0.3, 0.1], 1),  # fpc 1 ranks below fpc 2
    ([0.6, 0.5, 0.3, 0.1], 2),
])
def test_check_margins_hand_computed(means, weaker):
    sd = [0.3, 0.3, 0.4, 0.0] + [0.0] * 8
    margins = ranking_sweep.check_margins(
        _summaries(_summary(means + TAIL, sd)))
    assert list(margins) == [*pipeline.ROLE_CHECKS,
                             "tail_importance_negligible"]

    # y1: the lower ranked of fpc 1 and 2 against the best of the rest;
    # se = sqrt((0.3^2 + 0.4^2) / 25) = 0.1
    y1 = margins["y1_top2_is_fpc_1_2"]
    assert y1["rival"] == 3
    assert y1["margin"] == pytest.approx(means[weaker - 1] - 0.3)
    assert y1["se_units"] == pytest.approx(y1["margin"] / 0.1)

    # y2: fpc 1 against the second strongest other component, fpc 3,
    # which the tie places behind fpc 1; zero sds give no SE units
    assert margins["y2_top2_contains_fpc_1"] == {
        "margin": 0.0, "rival": 3, "se_units": None}
    # fpc 3 against the third strongest other component, fpc 4
    y2_top3 = margins["y2_top3_contains_fpc_3"]
    assert y2_top3["rival"] == 4 and y2_top3["margin"] == pytest.approx(0.1)

    # y3: fpc 2 ties fpc 1, which ranks first; the check fails at margin 0
    assert margins["y3_top1_is_fpc_2"] == {
        "margin": 0.0, "rival": 1, "se_units": 0.0}

    tail = margins["tail_importance_negligible"]
    assert tail["rival"] is None and tail["se_units"] is None
    assert tail["margin"] == pytest.approx(pipeline.NEGLIGIBLE_FRACTION * 0.4)


def test_margin_signs_agree_with_the_report_checks():
    summaries = _summaries(_summary([0.5, 0.6, 0.3, 0.1] + TAIL, [0.1] * 12))
    reports = {t: explain.PfiReport(
        importances=np.array(p["mean_importance"])[:, None],
        baseline_loss=0.1, loss="squared", seed=0, n_obs=5)
        for t, p in summaries.items()}
    checks = pipeline.ranking_checks(reports)
    for name, m in ranking_sweep.check_margins(summaries).items():
        if m["margin"] != 0.0:
            assert checks[name] == (m["margin"] > 0), name
