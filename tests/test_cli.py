import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abiwave import cli, resonance
from abiwave.state import ConstantState

# a NumPy warning would print its own stderr lines next to a command's one
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def run_cli(*argv):
    return cli.main(list(argv))


def _one_stderr_line(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    return err


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


def test_manifest_records_library_versions(tmp_path):
    import platform

    import scipy

    out = tmp_path / "proj"
    assert run_cli("projectors", "--xi", "1,0.5,0", "--out", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["versions"] == {"python": platform.python_version(),
                                    "numpy": np.__version__,
                                    "scipy": scipy.__version__}


def test_library_versions_match_the_package_metadata(monkeypatch, tmp_path):
    # read without importlib.metadata, which loads the email package
    from importlib import metadata

    versions = cli._library_versions.__wrapped__()
    assert versions["numpy"] == metadata.version("numpy")
    assert versions["scipy"] == metadata.version("scipy")
    # no SciPy, or a SciPy directory without version.py: None
    for paths in ([], [str(tmp_path / "version.py")]):
        monkeypatch.setattr(cli, "scipy_paths", lambda *parts: paths)
        assert cli._library_versions.__wrapped__()["scipy"] is None


def test_projectors_out_dot_writes_what_stdout_shows(tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.chdir(tmp_path)
    argv = ("projectors", "--xi", "1,0,0")
    assert run_cli(*argv) == 0
    printed = capsys.readouterr().out
    assert not any(tmp_path.iterdir())
    assert run_cli(*argv, "--out", ".") == 0
    assert capsys.readouterr().out == "wrote projectors.json\n"
    assert (tmp_path / "projectors.json").read_text() + "\n" == printed
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["outputs"] == ["projectors.json"]


def test_projectors_rejects_zero_xi():
    assert run_cli("projectors", "--xi", "0,0,0") == cli.EXIT_USAGE


def test_check_identities_pass_and_fail(tmp_path, capsys):
    out = tmp_path / "ids"
    assert run_cli("check-identities", "--samples", "2000",
                   "--out", str(out)) == 0
    report = json.loads((out / "identities.json").read_text())
    assert report["pass"] and report["worst"] <= 1e-10
    assert (out / "manifest.json").exists()
    capsys.readouterr()
    # unreachable tolerance must fail with exit 2
    assert run_cli("check-identities", "--samples", "500",
                   "--tolerance", "1e-30", "--out", str(out)) == 2
    assert "exceeds the tolerance" in _one_stderr_line(capsys)


def test_check_identities_writes_the_identity_suite(tmp_path):
    assert run_cli("check-identities", "--samples", "300", "--seed", "5",
                   "--out", str(tmp_path)) == 0
    report = json.loads((tmp_path / "identities.json").read_text())
    xi, eta = resonance.sample_off_axis(np.random.default_rng(5), 300)
    state = ConstantState.from_dict(report["state"])
    assert report["results"] == resonance.identity_suite(xi, eta, state)


def test_check_identities_isotropic_state(tmp_path):
    assert run_cli("check-identities", "--samples", "1000",
                   "--tau0", "1.0", "--b0", "0", "--d0", "0",
                   "--out", str(tmp_path)) == 0


def test_verify_symbols_single_and_mutated(tmp_path, capsys):
    out = tmp_path / "v"
    assert run_cli("verify-symbols", "--interactions", "+,-+",
                   "--out", str(out)) == 0
    certs = json.loads((out / "certificates.json").read_text())
    assert certs["all_verified"]
    assert certs["certificates"][0]["entries_total"] == 1000
    capsys.readouterr()
    # mutated entry must be flagged and exit 2
    code = run_cli("verify-symbols", "--which", "N", "--mutate-entry", "3,4,5",
                   "--skip-preflight", "--out", str(out))
    assert code == 2
    assert "nonzero residues in N +,++" in _one_stderr_line(capsys)
    certs = json.loads((out / "certificates.json").read_text())
    assert certs["certificates"][0]["interaction"] == "+,++"
    w = certs["certificates"][0]["witnesses"][0]
    assert w["entry"] == [3, 4, 5]


def test_failed_preflight_gate_exits_2_with_one_line(tmp_path, monkeypatch,
                                                     capsys):
    from abiwave.symbolic import certify as C

    monkeypatch.setattr(C, "GATE_ANNIHILATION_TOL", -1.0)
    assert run_cli("verify-symbols", "--interactions", "+,-+",
                   "--out", str(tmp_path)) == cli.EXIT_VERIFICATION
    assert "annihilation gate failed" in _one_stderr_line(capsys)
    assert not (tmp_path / "certificates.json").exists()


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
    (("--which", "N", "--interactions", "+,++", "--subsystem", "chaplygin",
      "--mutate-entry", "5,5,5"), "outside the evolution chaplygin"),
])
def test_verify_symbols_rejects_bad_mutation(tmp_path, capsys, args, message):
    out = tmp_path / "out"
    assert run_cli("verify-symbols", *args, "--skip-preflight",
                   "--out", str(out)) == cli.EXIT_USAGE
    assert message in _one_stderr_line(capsys)
    assert not out.exists()  # no certificates, not even an empty directory


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


def test_simulate_manifest_records_run_stats(tmp_path):
    path, raw = small_sim_config(tmp_path, grid={"N": 8, "L": 8.0})
    assert run_cli("simulate", "--config", str(path)) == 0
    outdir = tmp_path / "out"
    stats = json.loads((outdir / "manifest.json").read_text())["stats"]
    rows = (outdir / "series.csv").read_text().splitlines()[1:]
    assert stats["steps"] > 0
    assert stats["rhs_calls"] == 4 * stats["steps"]
    assert stats["samples"] == len(rows)
    assert stats["fields_transformed"] > 50 * stats["rhs_calls"]


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


def _blowup_in_step_3(cfg, initial=None):
    """A stand-in for ``simulate.simulate``: no samples, blow-up in step 3."""
    from abiwave import simulate as sim
    from abiwave.diagnostics import DiagnosticsSeries
    from abiwave.fields import StateField

    series = DiagnosticsSeries()
    series.mark_blowup(0.375, 3)
    return sim.SimResult(series=series, final=StateField.zeros(cfg.grid),
                         snapshots=[])


def test_simulate_blowup_exit_code(tmp_path, monkeypatch, capsys):
    from abiwave import simulate as sim

    path, _ = small_sim_config(tmp_path)
    monkeypatch.setattr(sim, "simulate", _blowup_in_step_3)
    assert run_cli("simulate", "--config", str(path)) == cli.EXIT_BLOWUP
    assert "blow-up in step 3 (t = 0.375)" in _one_stderr_line(capsys)
    assert (tmp_path / "out" / "manifest.json").exists()


def test_u0_probe_blowup_exit_code(tmp_path, monkeypatch, capsys):
    from abiwave import simulate as sim

    path, _ = small_sim_config(tmp_path, mode="u0_probe")
    monkeypatch.setattr(sim, "simulate", _blowup_in_step_3)
    assert run_cli("simulate", "--config", str(path)) == cli.EXIT_BLOWUP
    assert "amplitude 0.01 in step 3 (t = 0.375)" in _one_stderr_line(capsys)
    assert not (tmp_path / "out" / "u0_probe.json").exists()


def test_overflowing_sample_exits_3_with_partial_outputs(tmp_path, capsys):
    # large undealiased chaplygin data at 8^3: a sampled diagnostic
    # overflows before the state does, and that is a blow-up of its step
    raw = {"schema": 1, "grid": {"N": 8, "L": 12.5}, "state": {"tau0": 1.0},
           "ic": {"kind": "chaplygin", "amplitude": 0.9, "seed": 3},
           "time": {"t_end": 60.0, "cfl": 0.5}, "dealias": False,
           "diagnostics": {"cadence": 0.1, "sobolev_n": 8},
           "output": {"dir": str(tmp_path / "out")}}
    path = _write(tmp_path, raw)
    assert run_cli("simulate", "--config", str(path)) == cli.EXIT_BLOWUP
    assert "blow-up in step 7 (t = 5.45455)" in _one_stderr_line(capsys)
    for name in ("series.csv", "manifest.json"):
        assert (tmp_path / "out" / name).exists()


def test_simulate_out_flag_wins_over_output_dir(tmp_path):
    path, _ = small_sim_config(tmp_path, grid={"N": 8, "L": 8 * np.pi})
    out = tmp_path / "typed"
    assert run_cli("simulate", "--config", str(path), "--out",
                   str(out)) == cli.EXIT_OK
    for name in ("series.csv", "manifest.json", "snapshot_t0.raw"):
        assert (out / name).exists()
    assert not (tmp_path / "out").exists()


def test_decay_report_out_flag_wins_over_output_dir(tmp_path):
    path = _write(tmp_path, _decay_config(tmp_path))
    out = tmp_path / "typed"
    assert run_cli("decay-report", "--config", str(path), "--out",
                   str(out)) == cli.EXIT_OK
    for name in ("decay_report.json", "manifest.json"):
        assert (out / name).exists()
    assert not (tmp_path / "decay").exists()


def test_simulate_warns_of_snapshot_times_past_t_end(tmp_path, capsys):
    _, raw = small_sim_config(tmp_path, grid={"N": 8, "L": 8 * np.pi})
    raw["output"]["snapshots"] = [0.0, 5.0, 2.5]
    path = _write(tmp_path, raw)
    assert run_cli("simulate", "--config", str(path)) == cli.EXIT_OK
    err = _one_stderr_line(capsys)
    assert err.startswith("warning:") and "[2.5, 5.0]" in err
    assert len(list((tmp_path / "out").glob("snapshot_*.raw"))) == 1


def test_snapshot_times_sharing_a_sample_write_one_file(tmp_path, capsys):
    # an 8^3 desk run of one step (dt = 1): 0.0 and 0.5 both round to
    # the sample at t = 0, and 3.0 is past t_end
    raw = json.loads((Path(__file__).resolve().parents[1] / "configs"
                      / "desk.json").read_text())
    raw["grid"]["N"] = 8
    raw["time"] = {"t_end": 1.0, "dt": 1.0}
    raw["output"] = {"dir": str(tmp_path / "out"),
                     "snapshots": [0.0, 0.5, 3.0]}
    path = _write(tmp_path, raw)
    assert run_cli("simulate", "--config", str(path)) == cli.EXIT_OK
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 2 and all(line.startswith("warning:") for line in err)
    assert "[0.0, 0.5] share the sample at t = 0" in err[0]
    assert "[3.0] are past t_end" in err[1]
    outputs = json.loads((tmp_path / "out" / "manifest.json").read_text())[
        "outputs"]
    snaps = [p for p in outputs if Path(p).name.startswith("snapshot_")]
    assert snaps == [str(tmp_path / "out" / "snapshot_t0.raw")]
    assert len(outputs) == len(set(outputs))


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


def _write(tmp_path, raw):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def _decay_config(tmp_path):
    return {"schema": 1, "grid": {"N": 16, "L": 50.0},
            "state": {"tau0": 1.0}, "times": {"t1": 1.0, "t2": 2.0},
            "output": {"dir": str(tmp_path / "decay")}}


def _set(section, key, value):
    def edit(raw, tmp_path):
        raw[section][key] = value
        return raw
    return edit


def _replace(key, value):
    def edit(raw, tmp_path):
        raw[key] = value
        return raw
    return edit


def _out_under_file(raw, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    raw["output"]["dir"] = str(blocker / "out")
    return raw


def _probe_amplitudes(value):
    def edit(raw, tmp_path):
        raw["mode"] = "u0_probe"
        raw["u0_probe"] = {"amplitudes": value}
        return raw
    return edit


@pytest.mark.parametrize("command, edit", [
    ("simulate", lambda raw, tmp_path: []),
    ("decay-report", lambda raw, tmp_path: []),
    ("simulate", _replace("ic", 5)),
    ("decay-report", _replace("grid", 5)),
    ("simulate", _set("time", "t_end", None)),
    ("simulate", _set("output", "snapshots", 5)),
    ("simulate", _set("output", "snapshots", "abc")),
    ("simulate", _set("output", "snapshots", [-1.0, 0.5])),
    ("decay-report", _set("times", "t1", None)),
    ("simulate", _set("state", "tau0", 1.0)),
    ("simulate", _out_under_file),
    ("decay-report", _out_under_file),
    ("simulate", _replace("dealias", "no")),
    ("simulate", _probe_amplitudes(5)),
    ("simulate", _probe_amplitudes([1e-2, 5e-3, 2e-3])),
    ("simulate", _set("time", "t_end", -1)),
    ("simulate", _set("time", "t_end", float("nan"))),
    ("simulate", _set("ic", "seed", -1)),
    ("simulate", _set("ic", "seed", 2 ** 70)),
    ("simulate", _set("ic", "kind", 7)),
    ("decay-report", _set("times", "n", 0)),
    ("decay-report", _set("times", "n", 1)),
    ("decay-report", _set("times", "t2", 1e4)),
    ("simulate", _set("ic", "width", 0)),
    ("simulate", _set("ic", "amplitude", -1)),
    ("simulate", _set("ic", "k0", float("nan"))),
    ("simulate", _set("diagnostics", "cadence", float("nan"))),
    ("simulate", _replace("state", {"tau0": float("nan")})),
    ("simulate", _set("grid", "N", 8.9)),
    ("decay-report", _set("grid", "N", 8.9)),
    ("simulate", _set("diagnostics", "sobolev_n", 8.9)),
    ("simulate", _set("ic", "seed", 8.9)),
    ("decay-report", _set("times", "n", 8.9)),
], ids=["sim-list", "decay-list", "ic-int", "decay-grid-int", "t_end-null",
        "snapshots-int", "snapshots-str", "snapshots-negative", "t1-null", "manifold_from-and-tau0",
        "sim-out-under-file", "decay-out-under-file", "dealias-str",
        "amplitudes-int", "amplitudes-three", "t_end-negative", "t_end-nan",
        "seed-negative", "seed-2**70", "kind-int", "n-0", "n-1",
        "t2-past-wrap", "width-0", "amplitude-negative", "k0-nan",
        "cadence-nan", "tau0-nan", "N-8.9", "decay-N-8.9", "sobolev_n-8.9",
        "seed-8.9", "n-8.9"])
def test_bad_config_or_output_exits_1_without_traceback(tmp_path, capsys,
                                                         command, edit):
    if command == "simulate":
        _, raw = small_sim_config(tmp_path)
    else:
        raw = _decay_config(tmp_path)
    path = _write(tmp_path, edit(raw, tmp_path))
    runs = [()] if edit is _out_under_file else [("--dry-run",), ()]
    for extra in runs:
        assert run_cli(command, "--config", str(path), *extra) \
            == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1


def test_bad_abi_threads_warns_once_and_is_recorded(tmp_path, monkeypatch,
                                                     capsys, grid16):
    from abiwave import grid as grid_module

    monkeypatch.setenv("ABI_THREADS", "abc")
    grid_module._workers_from.cache_clear()
    for _ in range(5):
        grid16.rinv(grid16.rfwd(np.zeros((10,) + (grid16.N,) * 3)))
    for run in ("a", "b"):
        out = tmp_path / run
        assert run_cli("projectors", "--xi", "1,0.5,0", "--out", str(out)) == 0
    err = capsys.readouterr().err
    assert err.count("warning: ABI_THREADS='abc'") == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["threads"] == 1
    assert manifest["threads_requested"] == "abc"


def test_ctrl_c_exits_130_with_one_line(monkeypatch, capsys):
    def interrupted(ns):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_projectors", interrupted)
    assert cli.EXIT_INTERRUPTED == 130
    assert run_cli("projectors", "--xi", "1,0,0") == cli.EXIT_INTERRUPTED
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ("projectors", "--xi", "a,b,c"),
    ("projectors", "--xi", "1,0"),
    ("projectors", "--xi", "0,0,0"),
    ("projectors", "--xi", "1,0,0", "--b0", "x"),
    ("projectors", "--xi", "1,0,0", "--d0", "1,2"),
    ("check-identities", "--samples", "0"),
    ("check-identities", "--samples", "many"),
    ("projectors", "--xi", "1,0,0", "--tau0", "nan"),
    ("check-identities", "--tolerance", "nan"),
    ("check-identities", "--tolerance", "-1"),
    ("check-identities", "--out", "made", "--seed", "-1"),
    ("verify-symbols", "--out", "made", "--interactions", "x"),
    ("verify-symbols", "--out", "made", "--interactions", "+,++;x"),
], ids=["xi-str", "xi-two", "xi-zero", "b0-str", "d0-two", "samples-0",
        "samples-str", "tau0-nan", "tolerance-nan", "tolerance-negative",
        "seed-negative", "interactions-x", "interactions-second-bad"])
def test_bad_flag_value_exits_1_naming_the_flag(tmp_path, monkeypatch,
                                                 capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert f"argument {argv[-2]}:" in err
    assert not any(tmp_path.iterdir())  # no output, not even a directory


@pytest.mark.parametrize("command, section, key, value", [
    ("simulate", "grid", "L", "50"),
    ("simulate", "grid", "L", True),
    ("decay-report", "grid", "L", "50"),
    ("simulate", "time", "cfl", "0.4"),
    ("simulate", "time", "dt", "0.1"),
    ("decay-report", "times", "t1", "1.0"),
    ("decay-report", "times", "t2", True),
], ids=["L-str", "L-bool", "decay-L-str", "cfl-str", "dt-str", "t1-str",
        "t2-bool"])
def test_dry_run_rejects_a_number_given_as_text_or_bool(tmp_path, capsys,
                                                        command, section,
                                                        key, value):
    if command == "simulate":
        _, raw = small_sim_config(tmp_path)
    else:
        raw = _decay_config(tmp_path)
    raw[section][key] = value
    path = _write(tmp_path, raw)
    assert run_cli(command, "--config", str(path), "--dry-run") \
        == cli.EXIT_USAGE
    assert f"{section}.{key}: must be a finite number" \
        in _one_stderr_line(capsys)


def test_a_list_is_no_finite_number(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli("check-identities", "--tolerance", "1,2") == cli.EXIT_USAGE
    assert ("argument --tolerance: must be a finite number, got [1.0, 2.0]"
            in _one_stderr_line(capsys))
    _, raw = small_sim_config(tmp_path)
    raw["time"]["t_end"] = [1.0]
    path = _write(tmp_path, raw)
    assert run_cli("simulate", "--config", str(path), "--dry-run") \
        == cli.EXIT_USAGE
    assert ("time.t_end: must be a finite number, got [1.0]"
            in _one_stderr_line(capsys))


CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs")
                 .glob("*.json"))


def _paths(node, prefix=()):
    """Paths (key or index tuples) to every value inside a JSON value."""
    items = (node.items() if isinstance(node, dict) else
             enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


@st.composite
def _mutated_config(draw):
    """(command, file text) of a bundled config with one mutation."""
    path = draw(st.sampled_from(CONFIGS))
    raw = json.loads(path.read_text())
    command = "decay-report" if "bump" in raw else "simulate"
    kind = draw(st.sampled_from(["drop", "retype", "number", "non-object",
                                 "truncated"]))
    if kind == "non-object":
        return command, json.dumps(draw(st.sampled_from(
            [None, 0, -1.5, "config", [], [raw]])))
    text = json.dumps(raw)
    if kind == "truncated":
        return command, text[:draw(st.integers(0, len(text) - 1))]
    paths = list(_paths(raw))
    if kind == "drop":
        paths = [p for p in paths if isinstance(_at(raw, p[:-1]), dict)]
    target = draw(st.sampled_from(paths))
    parent = _at(raw, target[:-1])
    if kind == "drop":
        del parent[target[-1]]
    elif kind == "retype":
        parent[target[-1]] = draw(st.sampled_from(
            [None, "abc", "", [], [1.0], {}, {"x": 1}]))
    else:  # small enough that no grid or time array gets large
        parent[target[-1]] = draw(st.integers(-3, 0)
                                  | st.floats(-3.0, 0.0))
    return command, json.dumps(raw)


@settings(deadline=None, max_examples=120)
@given(case=_mutated_config())
def test_mutated_bundled_config_dry_run_exits_0_or_1(tmp_path_factory, case):
    command, text = case
    path = tmp_path_factory.mktemp("fuzz") / "config.json"
    path.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = run_cli(command, "--config", str(path), "--dry-run")
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE)
    assert "Traceback" not in err.getvalue()
    assert len(err.getvalue().strip().splitlines()) <= 1


# the fuzzer above runs --dry-run only; these run 8^3 simulations past it
_OFF_MANIFOLD = {"tau0": 1.0, "b0": [0.5, 0.0, 0.0]}


@pytest.mark.parametrize("edit, message", [
    (_replace("state", _OFF_MANIFOLD), "state is not on the lift manifold"),
    (_set("ic", "kind", "chaplygin"), "chaplygin data needs b0 = d0 = 0"),
], ids=["bi_lift-off-manifold", "chaplygin-magnetic"])
def test_dry_run_rejects_a_background_the_data_cannot_perturb(
        tmp_path, capsys, edit, message):
    _, raw = small_sim_config(tmp_path, grid={"N": 8, "L": 8.0})
    path = _write(tmp_path, edit(raw, tmp_path))
    lines = []
    for extra in (("--dry-run",), ()):
        assert run_cli("simulate", "--config", str(path), *extra) \
            == cli.EXIT_USAGE
        lines.append(_one_stderr_line(capsys))
    assert lines[0] == lines[1]
    assert message in lines[0]
    assert not (tmp_path / "out").exists()


def test_zero_amplitude_perturbs_any_background(tmp_path):
    # amplitude 0 draws nothing, so the background is not checked
    _, raw = small_sim_config(tmp_path, grid={"N": 8, "L": 8.0},
                              state=_OFF_MANIFOLD)
    raw["ic"]["amplitude"] = 0.0
    path = _write(tmp_path, raw)
    assert run_cli("simulate", "--config", str(path), "--dry-run") == 0
    assert run_cli("simulate", "--config", str(path)) == 0


def test_chaplygin_amplitude_past_tau0_fails_in_the_run(tmp_path, capsys):
    # the drawn tau decides this one, so --dry-run cannot
    _, raw = small_sim_config(tmp_path, grid={"N": 8, "L": 8.0},
                              state={"tau0": 1.0})
    raw["ic"].update(kind="chaplygin", amplitude=5.0)
    path = _write(tmp_path, raw)
    assert run_cli("simulate", "--config", str(path), "--dry-run") == 0
    capsys.readouterr()
    assert run_cli("simulate", "--config", str(path)) == cli.EXIT_USAGE
    assert "perturbation drives tau nonpositive" in _one_stderr_line(capsys)


def test_manifests_read_the_code_version_once(tmp_path, monkeypatch):
    import subprocess

    cli._code_version.cache_clear()
    want = cli._code_version()
    cli._code_version.cache_clear()
    calls = []
    real = subprocess.run

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(subprocess, "run", spy)
    versions = [cli.RunManifest("simulate", {}).data["code_version"]
                for _ in range(2)]
    assert len(calls) <= 1
    assert versions == [want, want]
