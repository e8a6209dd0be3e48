"""Campaign plumbing: config validation, report artifacts, determinism,
and the CLI exit-status contract."""

import json

import numpy as np
import pytest

from stable_tv_lab import campaigns
from stable_tv_lab.campaigns import (
    CAMPAIGNS,
    DEFAULT_PARAMS,
    ExperimentConfig,
    run_campaign,
)
from stable_tv_lab.cli import main
from stable_tv_lab.rng import RngStream
from stable_tv_lab.sde import BLOCK_SIZE

SMALL_SAMPLERS = {"alpha": [1.5], "t": [1.0], "xi": [1.0], "n": 40_000}


def test_all_campaigns_registered_with_defaults():
    assert set(CAMPAIGNS) == set(DEFAULT_PARAMS)
    assert len(CAMPAIGNS) == 7


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig("not-a-campaign")
    with pytest.raises(ValueError):
        ExperimentConfig("constants", params={"bogus": 1})
    for workers in (0, -1, "2", True, 2.0):
        with pytest.raises(ValueError):
            ExperimentConfig("constants", workers=workers)
    for seed in (True, -1, 2**64, "0"):  # RngStream keys take seeds in [0, 2^64)
        with pytest.raises(ValueError):
            ExperimentConfig("constants", seed=seed)
    assert ExperimentConfig("constants", seed=2**64 - 1, workers=np.int64(2)).workers == 2
    cfg = ExperimentConfig("constants", params={"d": [2]})
    assert cfg.params["d"] == [2]
    assert cfg.params["alpha"] == DEFAULT_PARAMS["constants"]["alpha"]  # merged


@pytest.mark.parametrize("campaign", ["tv-theorem", "gradient-probe"])
def test_workers_reach_the_campaign_and_change_nothing(campaign, monkeypatch):
    seen = []

    def spy(fn):
        def wrapped(*args, **kwargs):
            seen.append(kwargs.get("workers", 1))
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(campaigns, "run_ensemble", spy(campaigns.run_ensemble))
    monkeypatch.setattr(campaigns, "mc_semigroup", spy(campaigns.mc_semigroup))
    params = {"n": 2 * BLOCK_SIZE + 5}
    one = run_campaign(ExperimentConfig(campaign, params=params, workers=1))
    seen.clear()
    two = run_campaign(ExperimentConfig(campaign, params=params, workers=2))
    assert seen and set(seen) == {2}
    assert one.checks == two.checks
    assert one.data == two.data


def test_config_from_file_with_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"campaign": "constants", "seed": 3, "params": {"d": [1]}}))
    cfg = ExperimentConfig.from_file(path, seed=9, output_dir=None)
    assert cfg.seed == 9 and cfg.params["d"] == [1]


def test_constants_campaign_report_shape():
    report = run_campaign(ExperimentConfig("constants"))
    assert report.passed
    json.dumps(report.as_dict())  # must be plain-Python serializable
    assert "constants" in report.data
    assert all(set(c) >= {"name", "value", "expected", "tolerance", "pass"} for c in report.checks)


def test_report_written_to_disk(tmp_path):
    out = tmp_path / "run"
    run_campaign(ExperimentConfig("constants", output_dir=str(out)))
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert (out / "data" / "constants.csv").exists()


def test_campaign_reruns_are_value_identical():
    a = run_campaign(ExperimentConfig("verify-samplers", seed=5, params=SMALL_SAMPLERS))
    b = run_campaign(ExperimentConfig("verify-samplers", seed=5, params=SMALL_SAMPLERS))
    assert a.checks == b.checks
    assert a.data == b.data


def test_seed_changes_values_but_not_structure():
    a = run_campaign(ExperimentConfig("verify-samplers", seed=5, params=SMALL_SAMPLERS))
    b = run_campaign(ExperimentConfig("verify-samplers", seed=6, params=SMALL_SAMPLERS))
    assert [c["name"] for c in a.checks] == [c["name"] for c in b.checks]
    assert a.checks != b.checks


# data/*.csv that `stable-tv-lab <campaign> --out DIR` must write
CLI_ARTIFACTS = {
    "constants": ["constants"],
    "ou-rate": ["ou_rate", "rate_fit"],
    "poisson-rate": ["poisson", "lin_norm_shape"],
}


@pytest.mark.parametrize("campaign", sorted(CLI_ARTIFACTS))
def test_cli_success_and_output(campaign, tmp_path, capsys):
    out = tmp_path / "cli-run"
    assert main([campaign, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert json.loads(stdout)["passed"] is True
    assert (out / "report.json").exists()
    for name in CLI_ARTIFACTS[campaign]:
        assert (out / "data" / f"{name}.csv").exists()
    if campaign == "poisson-rate":  # alpha = 1.99 is in the defaults
        rows = (out / "data" / "poisson.csv").read_text().splitlines()
        assert any(row.startswith("1.99,") for row in rows)


def test_cli_config_file_and_failure_exit(tmp_path, capsys):
    # an absurd tolerance forces a failed check: exit status must be 1
    cfg = {
        "campaign": "moment-check",
        "params": {"alpha": [1.5], "t": [1.0], "n": 50_000, "blocks": 16, "rtol": 1e-12},
    }
    path = tmp_path / "doomed.json"
    path.write_text(json.dumps(cfg))
    assert main(["moment-check", "--config", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False


def test_cli_env_seed_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("STABLE_TV_LAB_SEED", "17")
    assert main(["constants"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["seed"] == 17


# bad command lines: extra argv, and the JSON of a --config file (None: no file)
BAD_CONFIGS = {
    "workers": (["--workers", "0"], None),
    "params-key": ([], {"params": {"alphas": [1.5]}}),
    "top-level-key": ([], {"campaign": "constants", "parms": {}}),
    "json-array": ([], [1, 2]),
    "params-array": ([], {"params": [1]}),
    "seed-string": ([], {"seed": "x"}),
    "seed-bool": ([], {"seed": True}),
    "seed-negative": (["--seed", "-1"], None),
    "seed-2**64": ([], {"seed": 2**64}),
    "workers-string": ([], {"workers": "2"}),
    "workers-bool": ([], {"workers": True}),
    "missing-file": (["--config", "absent.json"], None),
}


@pytest.mark.parametrize("bad", sorted(BAD_CONFIGS))
def test_cli_config_errors_exit_with_usage_status(bad, tmp_path, capsys, monkeypatch):
    # status 1 means a failed check; a bad config is a usage error, status 2
    monkeypatch.chdir(tmp_path)
    extra, text = BAD_CONFIGS[bad]
    argv = ["constants", *extra]
    if text is not None:
        (tmp_path / "bad.json").write_text(json.dumps(text))
        argv += ["--config", "bad.json"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("campaign, params", [("constants", {"d": "x"}), ("verify-samplers", {"n": "1000"})])
def test_cli_rejects_a_param_of_the_wrong_type(campaign, params, tmp_path, capsys):
    # each params value must have its default's type; a bad one is a usage error, status 2
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"campaign": campaign, "params": params}))
    with pytest.raises(SystemExit) as exc:
        main([campaign, "--config", str(path)])
    assert exc.value.code == 2
    assert f"params.{next(iter(params))}" in capsys.readouterr().err


def test_cli_rejects_unknown_campaign():
    with pytest.raises(SystemExit):
        main(["definitely-not-a-campaign"])


def test_tv_theorem_runs_one_ensemble_for_every_alpha(monkeypatch):
    ensembles, pair_alphas = [], []
    run_ensemble, pair = campaigns.run_ensemble, campaigns.coupled_ergodic_pair

    def counted_ensemble(*args, **kwargs):
        ensembles.append(args[2])
        return run_ensemble(*args, **kwargs)

    def counted_pair(alpha, *args, **kwargs):
        pair_alphas.append(alpha)
        return pair(alpha, *args, **kwargs)

    monkeypatch.setattr(campaigns, "run_ensemble", counted_ensemble)
    monkeypatch.setattr(campaigns, "coupled_ergodic_pair", counted_pair)
    report = run_campaign(ExperimentConfig("tv-theorem", seed=0, params={"n": 2 * BLOCK_SIZE + 5}))
    alphas = sorted(DEFAULT_PARAMS["tv-theorem"]["alpha"])
    assert ensembles == [("coupled", tuple(alphas))]
    assert pair_alphas == alphas
    assert campaigns._coupled_ensemble.cache_info().currsize == 0  # the memo is cleared
    # frozen from one coupled ensemble per alpha on streams 1000 + k: sharing
    # stream 1000 must leave the smallest alpha's row and the noise floor as they were
    checks = {c["name"]: c["value"] for c in report.checks}
    assert report.data["tv_theorem"][1][:3] == [1.7, 0.03746399404187739, 0.10198853238989879]
    assert checks["noise-floor<=0.05"] == 0.12786725231820398


def test_coupled_pairs_are_read_only_rows_of_one_ensemble():
    alphas, rng = (1.7, 1.9), RngStream(0, 1000)
    try:
        x17, _ = campaigns.coupled_ergodic_pair(1.7, alphas, 0.1, 0.05, 100, rng)
        x19, y19 = campaigns.coupled_ergodic_pair(1.9, alphas, 0.1, 0.05, 100, rng)
        assert x17.base is x19.base is y19.base
        assert not (x17.flags.writeable or x19.flags.writeable or y19.flags.writeable)
        with pytest.raises(ValueError):  # alpha must be one of the ensemble's
            campaigns.coupled_ergodic_pair(1.8, alphas, 0.1, 0.05, 100, rng)
    finally:
        campaigns._coupled_ensemble.cache_clear()


def test_gradient_probe_runs_one_ensemble_per_driver(monkeypatch):
    calls = []
    mc = campaigns.mc_semigroup

    def counted(*args, **kwargs):
        calls.append(args[4])
        return mc(*args, **kwargs)

    monkeypatch.setattr(campaigns, "mc_semigroup", counted)
    report = run_campaign(ExperimentConfig("gradient-probe", seed=0, params={"n": 2 * BLOCK_SIZE + 5}))
    # Brownian, stable at alpha = 1.5 and the smooth h; one per (driver, t) made 21
    assert len(calls) == 3
    assert all(isinstance(t, tuple) and len(t) == DEFAULT_PARAMS["gradient-probe"]["t_nodes"] for t in calls)
    # frozen from one ensemble per (driver, t): stream k = 0 of each driver is the
    # stream of its whole ensemble now, so the t = 1e-3 rows must stay as they were
    rows = {(r[0], r[2]): r[3] for r in report.data["gradient_probe"][1:]}
    assert rows[("brownian", 1e-3)] == 12.584298801353242
    assert rows[("stable", 1e-3)] == 45.72404538245699
