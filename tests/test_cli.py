import json

import numpy as np
import pytest

from abiwave import cli


def run_cli(*argv):
    return cli.main(list(argv))


def small_sim_config(tmp_path, **over):
    cfg = {
        "schema": 1,
        "mode": "simulate",
        "grid": {"N": 16, "L": float(2 * np.pi * 4)},
        "state": {"manifold_from": {"B0": [0.3, 0.0, 0.05],
                                    "D0": [0.0, 0.2, 0.1]}},
        "ic": {"kind": "bi_lift", "amplitude": 1e-2, "seed": 7},
        "time": {"t_end": 0.5, "cfl": 0.2},
        "dealias": True,
        "diagnostics": {"cadence": 0.25, "sobolev_n": 8},
        "output": {"dir": str(tmp_path / "out"), "snapshots": [0.0, 0.5]},
    }
    cfg.update(over)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


def test_projectors_command(tmp_path, capsys):
    assert run_cli("projectors", "--xi", "1.0,0.5,-0.2",
                   "--tau0", "1.0", "--b0", "0", "--d0", "0") == 0
    data = json.loads(capsys.readouterr().out)
    P0 = np.array(data["P0"])
    A0 = np.array(data["A0"])
    Pp = np.array(data["Pplus"])
    Pm = np.array(data["Pminus"])
    assert np.allclose(P0 + Pp + Pm, np.eye(10), atol=1e-12)
    assert np.allclose(A0, data["norm0"] * (Pp - Pm), atol=1e-10)


@pytest.mark.parametrize("value, workers", [("abc", 1), ("0", 1), ("2", 2)])
def test_manifest_threads_match_fft_workers(tmp_path, monkeypatch, value,
                                            workers):
    monkeypatch.setenv("ABI_THREADS", value)
    out = tmp_path / "proj"
    assert run_cli("projectors", "--xi", "1,0.5,0", "--out", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["threads"] == workers


def test_projectors_rejects_zero_xi():
    assert run_cli("projectors", "--xi", "0,0,0") == cli.EXIT_USAGE


def test_check_identities_pass_and_fail(tmp_path):
    out = tmp_path / "ids"
    assert run_cli("check-identities", "--samples", "2000",
                   "--out", str(out)) == 0
    report = json.loads((out / "identities.json").read_text())
    assert report["pass"] and report["worst"] <= 1e-10
    assert (out / "manifest.json").exists()
    # unreachable tolerance must fail with exit 2
    assert run_cli("check-identities", "--samples", "500",
                   "--tolerance", "1e-30", "--out", str(out)) == 2


def test_check_identities_isotropic_state(tmp_path):
    assert run_cli("check-identities", "--samples", "1000",
                   "--tau0", "1.0", "--b0", "0", "--d0", "0",
                   "--out", str(tmp_path)) == 0


def test_verify_symbols_single_and_mutated(tmp_path):
    out = tmp_path / "v"
    assert run_cli("verify-symbols", "--interactions", "+,-+",
                   "--out", str(out)) == 0
    certs = json.loads((out / "certificates.json").read_text())
    assert certs["all_verified"]
    assert certs["certificates"][0]["entries_total"] == 1000
    # mutated entry must be flagged and exit 2
    code = run_cli("verify-symbols", "--which", "N", "--mutate-entry", "3,4,5",
                   "--skip-preflight", "--out", str(out))
    assert code == 2
    certs = json.loads((out / "certificates.json").read_text())
    assert certs["certificates"][0]["interaction"] == "+,++"
    w = certs["certificates"][0]["witnesses"][0]
    assert w["entry"] == [3, 4, 5]


def test_verify_symbols_mutates_a_constraint_tensor(tmp_path):
    assert run_cli("verify-symbols", "--which", "Nprime", "--mutate-entry",
                   "0,2,3", "--skip-preflight", "--out", str(tmp_path)) == 2
    certs = json.loads((tmp_path / "certificates.json").read_text())
    (cert,) = certs["certificates"]
    assert cert["which"] == "Nprime" and cert["interaction"] == "',++"
    assert cert["witnesses"][0]["entry"] == [0, 2, 3]


@pytest.mark.parametrize("args, message", [
    (("--mutate-entry", "1,2,3"), "--which N or Nprime"),
    (("--which", "N", "--mutate-entry", "12,0,0"), "outside the evolution"),
    (("--which", "Nprime", "--mutate-entry", "5,0,0"),
     "outside the constraint"),
    (("--which", "N", "--mutate-entry=-1,0,0"), "outside the evolution"),
    (("--which", "N", "--mutate-entry", "1,2"), "three integers"),
    (("--which", "N", "--mutate-entry", "a,b,c"), "three integers"),
])
def test_verify_symbols_rejects_bad_mutation(tmp_path, capsys, args, message):
    assert run_cli("verify-symbols", *args, "--skip-preflight",
                   "--out", str(tmp_path)) == cli.EXIT_USAGE
    assert message in capsys.readouterr().err


def test_verify_symbols_which_nprime(tmp_path):
    assert run_cli("verify-symbols", "--which", "Nprime", "--skip-preflight",
                   "--out", str(tmp_path)) == 0
    certs = json.loads((tmp_path / "certificates.json").read_text())
    assert len(certs["certificates"]) == 4
    assert all(c["which"] == "Nprime" for c in certs["certificates"])


def test_verify_symbols_chaplygin_block(tmp_path):
    assert run_cli("verify-symbols", "--subsystem", "chaplygin",
                   "--interactions", "+,++", "--skip-preflight",
                   "--out", str(tmp_path)) == 0


def test_verify_symbols_cofactors(tmp_path):
    assert run_cli("verify-symbols", "--interactions", "+,+-",
                   "--cofactors", "--skip-preflight",
                   "--out", str(tmp_path)) == 0
    certs = json.loads((tmp_path / "certificates.json").read_text())
    cof = certs["certificates"][0]["cofactors"]
    assert cof and all(isinstance(v, dict) for v in cof.values())
    some = next(iter(cof.values()))
    assert any("X" in text for text in some.values())


def test_simulate_dry_run_and_full_run(tmp_path):
    path, raw = small_sim_config(tmp_path)
    assert run_cli("simulate", "--config", str(path), "--dry-run") == 0
    assert run_cli("simulate", "--config", str(path)) == 0
    outdir = tmp_path / "out"
    series = (outdir / "series.csv").read_text().splitlines()
    from abiwave.diagnostics import SERIES_COLUMNS
    assert series[0] == ",".join(SERIES_COLUMNS)
    assert len(series) >= 3
    assert (outdir / "manifest.json").exists()
    snaps = sorted(outdir.glob("snapshot_*.raw"))
    assert len(snaps) == 2
    assert all(p.with_suffix(".raw.json").exists() for p in snaps)
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["rng"] == "philox4x64"
    assert manifest["seed"] == 7


def test_simulate_reproducible_outputs(tmp_path):
    path, raw = small_sim_config(tmp_path)
    assert run_cli("simulate", "--config", str(path)) == 0
    first = (tmp_path / "out" / "series.csv").read_bytes()
    assert run_cli("simulate", "--config", str(path)) == 0
    second = (tmp_path / "out" / "series.csv").read_bytes()
    assert first == second


def test_simulate_config_errors(tmp_path):
    path, _ = small_sim_config(tmp_path, extra_key=1)
    assert run_cli("simulate", "--config", str(path)) == cli.EXIT_USAGE
    path, _ = small_sim_config(tmp_path, schema=99)
    assert run_cli("simulate", "--config", str(path)) == cli.EXIT_USAGE
    path, raw = small_sim_config(tmp_path)
    raw["time"]["cfl"] = 0.9  # violates the CFL invariant
    path.write_text(json.dumps(raw))
    assert run_cli("simulate", "--config", str(path)) == cli.EXIT_USAGE


def test_simulate_blowup_exit_code(tmp_path, monkeypatch):
    from abiwave import simulate as sim
    from abiwave.diagnostics import DiagnosticsSeries

    path, _ = small_sim_config(tmp_path)

    def fake_sim(cfg, initial=None):
        series = DiagnosticsSeries(sobolev_n=8)
        series.blowup = True
        from abiwave.fields import StateField
        return sim.SimResult(config=cfg, series=series,
                             final=StateField.zeros(cfg.grid), snapshots=[])

    monkeypatch.setattr(sim, "simulate", fake_sim)
    assert run_cli("simulate", "--config", str(path)) == cli.EXIT_BLOWUP


def test_simulate_u0_probe_mode(tmp_path):
    path, raw = small_sim_config(
        tmp_path, mode="u0_probe",
        u0_probe={"amplitudes": [1e-2, 5e-3]})
    assert run_cli("simulate", "--config", str(path)) == 0
    rep = json.loads((tmp_path / "out" / "u0_probe.json").read_text())
    assert 1.5 <= rep["ratio_min"] and rep["ratio_max"] <= 2.5


def test_decay_report_command(tmp_path):
    cfg = {
        "schema": 1,
        "grid": {"N": 32, "L": float(2 * np.pi * 10)},
        "state": {"tau0": 1.0},
        "bump": {"sigma": 1.5, "amplitude": 1.0, "component": 0},
        "times": {"t1": 3.0, "t2": 25.0, "n": 8},
        "output": {"dir": str(tmp_path / "decay")},
    }
    path = tmp_path / "decay.json"
    path.write_text(json.dumps(cfg))
    assert run_cli("decay-report", "--config", str(path), "--dry-run") == 0
    assert run_cli("decay-report", "--config", str(path)) == 0
    rep = json.loads((tmp_path / "decay" / "decay_report.json").read_text())
    assert rep["t_wrap"] > rep["window"][1]
    assert -2.0 <= rep["exponent"] <= -0.5


def test_bundled_configs_validate():
    from pathlib import Path
    root = Path(__file__).resolve().parent.parent / "configs"
    assert run_cli("simulate", "--config", str(root / "desk.json"),
                   "--dry-run") == 0
    assert run_cli("simulate", "--config", str(root / "u0_probe.json"),
                   "--dry-run") == 0
    assert run_cli("decay-report", "--config", str(root / "decay.json"),
                   "--dry-run") == 0


def test_usage_error_exit_code():
    assert run_cli("simulate", "--config", "/nonexistent.json") == 1
    assert run_cli() == cli.EXIT_USAGE
