import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schmidt_lab.atom_photon as atom_photon
import schmidt_lab.cli as cli
from schmidt_lab import schmidt, spdc
from schmidt_lab.atom_photon import (
    CAPTURE_TOL,
    AtomPhotonParams,
    coord_capture_drift,
    coord_grid,
    coord_matrix,
    coord_spectrum,
    full_dynamics,
)
from schmidt_lab.cli import FIG_PRESETS, FORMATS, main
from schmidt_lab.errors import ConvergenceError
from schmidt_lab.polarization import coherence
from schmidt_lab.schmidt import GAUGES, spectrum_drift
from schmidt_lab.tensor_core import Grid
from test_tensor_core import assert_nests


def _write_matrix(path, m):
    m = np.asarray(m, dtype=complex)
    lines = []
    for row in m:
        cells = []
        for z in row:
            sign = "+" if z.imag >= 0 else "-"
            cells.append(f"{z.real:.17g}{sign}{abs(z.imag):.17g}j")
        lines.append(" ".join(cells))
    path.write_text("\n".join(lines) + "\n")


def _summary(out_dir):
    return json.loads((out_dir / "summary.json").read_text())


def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_decompose_identity(tmp_path):
    f = tmp_path / "eye.txt"
    _write_matrix(f, np.eye(2))
    out = tmp_path / "out"
    assert main(["decompose", str(f), "--out", str(out)]) == 0
    s = _summary(out)
    assert s["schema"] == 1
    assert s["results"]["rank"] == 2
    assert s["results"]["K"] == pytest.approx(2.0, abs=1e-14)
    assert s["results"]["S"] == pytest.approx(1.0, abs=1e-14)
    assert s["results"]["lambdas"] == pytest.approx([0.5, 0.5], abs=1e-14)

    header, rows = _read_csv(out / "spectrum.csv")
    assert header == ["k", "lambda_k", "cumulative_weight"]
    assert [r[0] for r in rows] == ["1", "2"]
    assert float(rows[1][2]) == pytest.approx(1.0, abs=1e-14)

    header_p, rows_p = _read_csv(out / "modes_p.csv")
    # coordinate column plus (re, im) per emitted mode
    assert header_p == [
        "row_index",
        "mode1_re",
        "mode1_im",
        "mode2_re",
        "mode2_im",
    ]
    assert len(rows_p) == 2


def test_decompose_rank_one(tmp_path):
    f = tmp_path / "outer.txt"
    _write_matrix(f, np.outer([1.0, 2.0], [3.0, 1.0]))
    out = tmp_path / "out"
    assert main(["decompose", str(f), "--out", str(out)]) == 0
    s = _summary(out)
    assert s["results"]["rank"] == 1
    assert s["results"]["K"] == pytest.approx(1.0, abs=1e-14)
    assert s["results"]["S"] == pytest.approx(0.0, abs=1e-12)


def test_decompose_round_trip_through_emitted_modes(tmp_path):
    rng = np.random.default_rng(42)
    m = np.zeros((6, 6), dtype=complex)
    for _ in range(3):
        u = rng.normal(size=6) + 1j * rng.normal(size=6)
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        m += np.outer(u, v)
    f = tmp_path / "m.txt"
    _write_matrix(f, m)
    out1 = tmp_path / "o1"
    assert main(["decompose", str(f), "--out", str(out1)]) == 0
    s1 = _summary(out1)
    assert s1["results"]["rank"] == 3

    def modes_from_csv(path, r):
        _, rows = _read_csv(path)
        cols = np.array([[float(c) for c in row] for row in rows])
        return [cols[:, 1 + 2 * k] + 1j * cols[:, 2 + 2 * k] for k in range(r)]

    us = modes_from_csv(out1 / "modes_p.csv", 3)
    vs = modes_from_csv(out1 / "modes_q.csv", 3)
    lams = s1["results"]["lambdas"]
    rebuilt = sum(
        math.sqrt(lam) * np.outer(u, v) for lam, u, v in zip(lams, us, vs)
    )
    f2 = tmp_path / "m2.txt"
    _write_matrix(f2, rebuilt)
    out2 = tmp_path / "o2"
    assert main(["decompose", str(f2), "--out", str(out2)]) == 0
    s2 = _summary(out2)
    assert s2["results"]["lambdas"] == pytest.approx(lams, abs=1e-10)
    assert s2["results"]["K"] == pytest.approx(s1["results"]["K"], abs=1e-10)
    assert s2["results"]["S"] == pytest.approx(s1["results"]["S"], abs=1e-10)


@pytest.mark.parametrize("scale", [1e-170, 1e200, 2.0**-1060])
def test_decompose_tiny_or_huge_entries_like_the_unit_scale_matrix(tmp_path, scale):
    # The squared sum underflows to 0 or overflows to inf; the matrix is
    # rescaled before its norm, not refused as all-zero or unnormalized.
    # At 2**-1060 the entries are subnormal, and exact since m is dyadic.
    m = np.array([[1.0, 0.5], [0.25, 1.0]])
    outs = []
    for name, entries in (("unit", m), ("scaled", scale * m)):
        f = tmp_path / f"{name}.txt"
        _write_matrix(f, entries)
        outs.append(tmp_path / f"o-{name}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["decompose", str(f), "--out", str(outs[-1])]) == 0
    unit, scaled = (_summary(out)["results"] for out in outs)
    assert scaled["lambdas"] == pytest.approx(unit["lambdas"], rel=0, abs=1e-15)
    assert scaled["K"] == pytest.approx(unit["K"], rel=0, abs=1e-14)


def test_exit_code_parse_failures(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\n3 oops\n")
    assert main(["decompose", str(bad), "--out", str(tmp_path / "o")]) == 4

    nonsquare = tmp_path / "rect.txt"
    nonsquare.write_text("1 2 3\n4 5 6\n")
    assert main(["decompose", str(nonsquare), "--out", str(tmp_path / "o2")]) == 4

    assert main(["decompose", str(tmp_path / "missing.txt"), "--out", str(tmp_path / "o3")]) == 4

    zeros = tmp_path / "zeros.txt"
    zeros.write_text("0 0\n0 0j\n")
    assert main(["decompose", str(zeros), "--out", str(tmp_path / "o4")]) == 4
    assert "cannot normalize an all-zero amplitude matrix" in capsys.readouterr().err
    for name in ("o", "o2", "o3", "o4"):
        assert not (tmp_path / name).exists()


def test_matrix_file_that_is_not_utf8_exits_4(tmp_path, capsys):
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"1 2\n3 4\xb5\n")
    assert main(["decompose", str(latin1), "--out", str(tmp_path / "o")]) == 4
    assert "cannot read matrix file" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"n": 64, "sigma": "\xb5"}\n')
    argv = ["spdc", "--L", "0.5", "--sigma", "10", "--config", str(latin1)]
    assert main([*argv, "--out", str(tmp_path / "o")]) == 2
    assert "cannot read config file" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["spdc", "--L", "0.5", "--sigma", "10"],
        ["atom-photon-coord", "--xi0", "100", "--eta", "0.03", "--tau", "10"],
        ["atom-photon-momentum", "--xi0", "100", "--eta", "0.03"],
    ],
    ids=["spdc", "coord", "momentum"],
)
def test_window_whose_width_overflows_exits_2(tmp_path, capsys, argv):
    flag = "--window=-1e308,1e308,-1e308,1e308"
    assert main([*argv, "--n", "64", flag, "--out", str(tmp_path / "o")]) == 2
    assert "the p window [-1e+308, 1e+308] has a width that overflows" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["atom-photon-coord", "--tau", "1e300"],
        ["atom-photon-dynamics", "--tau-list", "1e300"],
        ["atom-photon-dynamics", "--tau-list", "5,1e300"],
    ],
    ids=["coord", "dynamics", "dynamics-sweep"],
)
def test_chirp_whose_square_overflows_exits_2(tmp_path, capsys, argv):
    params = ["--xi0", "100", "--eta", "0.03", "--n", "16"]
    assert main([*argv, *params, "--out", str(tmp_path / "o")]) == 2
    assert "the chirp tau eta^2 xi0 = 9e+298 is too large" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv, tau",
    [
        (["atom-photon-coord", "--tau", "1e16"], "1e+16"),
        (["atom-photon-coord", "--tau", "1e18"], "1e+18"),
        (["atom-photon-dynamics", "--tau-list", "5,1e16"], "1e+16"),
        (["atom-photon-dynamics", "--tau-list", "5,1e18"], "1e+18"),
    ],
    ids=["coord-1e16", "coord-1e18", "dynamics-1e16", "dynamics-1e18"],
)
def test_tau_whose_rounding_moves_the_p_nodes_exits_2(tmp_path, capsys, argv, tau):
    # At tau = 1e16 the 64 nodes of [tau - 40, tau] fall on a few
    # representable values, which moves K by 9.4e-6.
    params = ["--xi0", "1e-12", "--eta", "0.03", "--n", "64"]
    assert main([*argv, *params, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"tau = {tau} is too large for the coordinate window at n = 64" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


# (subcommand flags, eta, n): dynamics sweeps at xi0 100 that exited 0
# with K 7% to 50% low (eta 0.5 to 2 at n 16 to 48, with taus 0.1,10 or
# 3,10), the dynamics run at eta 2, n 64 (K 0.106 low), a coordinate run
# whose T = 0 factor would have had 8 million q nodes, and a --window run
# with the automatic window's p span.
UNDER_RESOLVED = [
    *[
        (["atom-photon-dynamics", "--tau-list", taus], eta, n)
        for eta, n in ((0.5, 16), (1.0, 16), (2.0, 16), (2.0, 32), (2.0, 48))
        for taus in ("0.1,10", "3,10")
    ],
    (["atom-photon-dynamics", "--tau-list", "0.1,10"], 1.0, 32),
    (["atom-photon-dynamics", "--tau-list", "0,10"], 2.0, 64),
    (["atom-photon-coord", "--tau", "10"], 1e5, 16),
    (["atom-photon-coord", "--tau", "10", "--window=-30,10,-60,40"], 2.0, 16),
]


@pytest.mark.parametrize(
    "argv, eta, n",
    UNDER_RESOLVED,
    ids=[f"{a[0][12:]}-{a[-1].split('=')[0].lstrip('-')}-eta{e:g}-n{n}" for a, e, n in UNDER_RESOLVED],
)
def test_p_mesh_coarser_than_the_gaussian_exits_3_before_sampling(
    tmp_path, monkeypatch, capsys, argv, eta, n
):
    sampled = []
    sample = atom_photon._sample

    def recording(amplitude, params, grid):
        sampled.append(grid)
        return sample(amplitude, params, grid)

    monkeypatch.setattr(atom_photon, "_sample", recording)
    params = ["--xi0", "100", "--eta", repr(eta), "--n", str(n)]
    assert main([*argv, *params, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert f"under-resolved at n = {n}" in err
    assert f"use n >= {math.ceil(40 * eta) + 1}" in err
    assert sampled == []
    assert not (tmp_path / "o").exists()


def test_exit_code_convergence(tmp_path, capsys):
    code = main(
        [
            "spdc",
            "--L",
            "4",
            "--sigma",
            "10",
            "--n",
            "32",
            "--window=-40,40,-40,40",
            "--out",
            str(tmp_path / "o"),
        ]
    )
    assert code == 3
    assert "n >=" in capsys.readouterr().err


def test_exit_code_config_errors(tmp_path, capsys):
    # missing required parameter
    assert main(["spdc", "--sigma", "10", "--out", str(tmp_path / "a")]) == 2
    # conflicting figure presets
    assert main(["spdc", "--fig5", "--fig6", "--out", str(tmp_path / "b")]) == 2
    # unknown config key
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"bogus": 1}\n')
    assert (
        main(
            [
                "spdc",
                "--L",
                "0.5",
                "--sigma",
                "10",
                "--n",
                "64",
                "--config",
                str(cfg),
                "--out",
                str(tmp_path / "c"),
            ]
        )
        == 2
    )
    # a config file that is missing, is not JSON, or holds a JSON list; a
    # mesh of fewer than two nodes; an empty or a reversed sweep range
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json\n")
    json_list = tmp_path / "list.json"
    json_list.write_text("[1, 2]\n")
    spdc_argv = ["spdc", "--L", "0.5", "--sigma", "10", "--n", "64"]
    dyn_argv = ["atom-photon-dynamics", "--xi0", "100", "--eta", "0.03", "--n", "64"]
    cases = [
        ([*spdc_argv, "--config", str(tmp_path / "missing.json")], "cannot read config file"),
        ([*spdc_argv, "--config", str(bad_json)], "cannot read config file"),
        ([*spdc_argv, "--config", str(json_list)], "must hold a JSON object"),
        (["spdc", "--L", "0.5", "--sigma", "10", "--n", "1"], "n must be at least 2, got 1"),
        ([*dyn_argv, "--tau-start", "0.1", "--tau-stop", "10", "--tau-steps", "0"],
         "--tau-steps must be at least 1"),
        (["spdc-length-sweep", "--sigma", "10", "--L-start", "0.5", "--L-stop", "1", "--L-steps", "0"],
         "--L-steps must be at least 1"),
        ([*dyn_argv, "--tau-start", "5", "--tau-stop", "1", "--tau-steps", "3"],
         "--tau-stop must be >= --tau-start"),
    ]
    capsys.readouterr()
    for i, (argv, message) in enumerate(cases):
        assert main([*argv, "--out", str(tmp_path / f"d{i}")]) == 2
        assert message in capsys.readouterr().err
    # argparse rejects unknown flags, a non-numeric list entry and a
    # window of other than four numbers with SystemExit(2)
    for name, argv in (
        ("i", ["spdc", "--no-such-flag"]),
        ("j", ["atom-photon-dynamics", "--fig2", "--tau-list", "1,x"]),
        ("k", ["spdc", "--fig5", "--window=-30,30,-30"]),
    ):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / name)])
        assert exc.value.code == 2
    assert sorted(f.name for f in tmp_path.iterdir()) == ["bad.json", "cfg.json", "list.json"]


def test_fig_preset_tables():
    assert FIG_PRESETS["fig1"] == {"xi0": 100.0, "eta": 0.03, "tau": 10.0, "n": 800}
    assert FIG_PRESETS["fig3"] == {"xi0": 100.0, "eta": 0.03, "n": 400}
    assert FIG_PRESETS["fig5"] == {"L": 0.5, "sigma": 10.0, "n": 512}
    assert FIG_PRESETS["fig6"] == {"L": 4.0, "sigma": 10.0, "n": 512}
    assert FIG_PRESETS["fig2"]["tau_steps"] == 34
    assert FIG_PRESETS["fig4"]["L_steps"] == 16


def test_coord_preset_with_flag_override(tmp_path):
    out = tmp_path / "out"
    assert main(["atom-photon-coord", "--fig1", "--n", "64", "--out", str(out)]) == 0
    s = _summary(out)
    p = s["params"]
    assert (p["xi0"], p["eta"], p["tau"]) == (100.0, 0.03, 10.0)
    assert p["n"] == 64  # explicit flag beats the preset's 800
    assert s["validity"]["satisfied"] is True
    ovl = s["results"]["laguerre_overlaps"]
    assert ovl[0]["k"] == 0 and ovl[0]["overlap_modulus"] > 0.99
    assert (out / "laguerre_overlaps.csv").exists()


@pytest.mark.parametrize("eta", ["1", "1.5"])
def test_momentum_refuses_eta_at_or_above_1_before_sampling(tmp_path, monkeypatch, capsys, eta):
    calls = []
    real = atom_photon.momentum_matrix
    monkeypatch.setattr(atom_photon, "momentum_matrix", lambda *a: calls.append(a) or real(*a))
    out = tmp_path / "out"
    argv = ["atom-photon-momentum", "--xi0", "100", "--eta", eta, "--n", "64", "--out", str(out)]
    assert main(argv) == 2
    assert "asymptotics require 0 < eta < 1" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def test_momentum_preset_with_flag_override(tmp_path):
    out = tmp_path / "out"
    assert main(["atom-photon-momentum", "--fig3", "--n", "64", "--out", str(out)]) == 0
    s = _summary(out)
    assert s["params"]["n"] == 64
    assert s["asymptotics"]["K_inf"] == pytest.approx(1.0009)
    header, rows = _read_csv(out / "modes_nu.csv")
    assert header[0] == "nu_ph"
    assert len(header) == 1 + 2 * 4  # four emitted modes, re and im each
    assert len(rows) == 64
    dheader, _ = _read_csv(out / "densities_pi.csv")
    assert dheader == ["pi_a"] + [f"mode{k}_density" for k in (1, 2, 3, 4)]


def test_dynamics_tau_list_contains_exact_balance_point(tmp_path):
    out = tmp_path / "out"
    tau = math.log(2.0)
    code = main(
        [
            "atom-photon-dynamics",
            "--xi0",
            "100",
            "--eta",
            "0.03",
            "--tau-list",
            f"{tau!r},10",
            "--n",
            "100",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    header, rows = _read_csv(out / "sweep.csv")
    assert header == ["tau", "K0", "S0", "K", "S", "K_minus_K0", "S_minus_S0"]
    assert len(rows) == 2
    first = [float(c) for c in rows[0]]
    assert first[1] == pytest.approx(2.0, abs=1e-12)
    assert first[2] == pytest.approx(1.0, abs=1e-12)
    assert first[3] == pytest.approx(2.0, abs=0.05)
    s = _summary(out)
    assert s["results"]["max_abs_K_minus_K0"] < 0.05


def test_dynamics_preset_row_count(tmp_path):
    out = tmp_path / "out"
    assert main(["atom-photon-dynamics", "--fig2", "--n", "64", "--out", str(out)]) == 0
    _, rows = _read_csv(out / "sweep.csv")
    assert len(rows) == 34
    assert float(rows[0][0]) == pytest.approx(0.1)
    assert float(rows[-1][0]) == pytest.approx(10.0)


def test_spdc_payload_and_polarization_block(tmp_path):
    out = tmp_path / "out"
    code = main(["spdc", "--L", "0.5", "--sigma", "10", "--n", "128", "--out", str(out)])
    assert code == 0
    s = _summary(out)
    r = s["results"]
    assert r["F"]["re"] == pytest.approx(0.971, abs=0.01)
    assert abs(r["F"]["im"]) < 1e-12
    assert r["weight_plus"] + r["weight_minus"] == pytest.approx(1.0, abs=1e-14)
    assert r["purity"] == pytest.approx((1.0 + r["F"]["re"] ** 2) / 2.0, abs=1e-12)
    assert s["params"]["X_o"] == pytest.approx(0.38)
    assert s["params"]["X_e"] == pytest.approx(1.33)
    rho = r["rho"]
    assert len(rho) == 4 and all(len(row) == 4 for row in rho)
    assert rho[1][1]["re"] == pytest.approx(0.5)
    assert rho[1][2]["re"] == pytest.approx(r["F"]["re"] / 2.0, abs=1e-14)
    assert r["rho_basis"] == ["HH", "HV", "VH", "VV"]
    assert "dF" in s["grid_convergence"]
    assert (out / "modes_o.csv").exists() and (out / "modes_e.csv").exists()


def test_spdc_length_sweep_with_list(tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "spdc-length-sweep",
            "--L-list",
            "0.5,1.0",
            "--sigma",
            "10",
            "--n",
            "96",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    header, rows = _read_csv(out / "sweep.csv")
    assert header == ["L", "X_o", "X_e", "F", "K", "S"]
    assert len(rows) == 2
    assert float(rows[0][3]) > float(rows[1][3])  # F falls as the crystal grows


SPDC_N128 = ["spdc", "--L", "1", "--sigma", "10", "--n", "128"]


@pytest.mark.parametrize(
    "argv, routes",
    [
        (SPDC_N128, [(True, "dense"), (False, "centrosymmetric")]),
        ([*SPDC_N128, "--window=-40,30,-40,30"], [(True, "dense"), (False, "dense")]),
        ([*SPDC_N128, "--trunc", "0"], [(True, "dense"), (False, "dense")]),
        (
            ["spdc-length-sweep", "--L-list", "0.5,1", "--sigma", "10", "--n", "128"],
            [(False, "centrosymmetric")] * 2,
        ),
    ],
    ids=["spdc", "asymmetric-window", "trunc-0", "length-sweep"],
)
def test_spdc_values_only_decompositions_take_the_split(tmp_path, monkeypatch, argv, routes):
    # The split needs the symmetric window, a cutoff above the rounding of
    # the mesh, and modes=False: the sweep points and the window probe.
    taken = []
    decompose = cli.schmidt_decompose

    def recording(A, opts=schmidt.DecompositionOptions(), modes=True):
        res = decompose(A, opts, modes)
        taken.append((modes, res.route))
        return res

    for mod in (cli, spdc):
        monkeypatch.setattr(mod, "schmidt_decompose", recording)
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert taken == routes


def test_env_var_supplies_default_n(tmp_path, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.setenv(cli.ENV_DEFAULT_N, "128")
    assert main(["spdc", "--L", "0.5", "--sigma", "10", "--out", str(out)]) == 0
    assert _summary(out)["params"]["n"] == 128

    monkeypatch.setenv(cli.ENV_DEFAULT_N, "not-a-number")
    assert main(["spdc", "--L", "0.5", "--sigma", "10", "--out", str(out)]) == 2
    # an explicit flag still beats the environment
    monkeypatch.setenv(cli.ENV_DEFAULT_N, "128")
    out3 = tmp_path / "out3"
    assert main(["spdc", "--L", "0.5", "--sigma", "10", "--n", "96", "--out", str(out3)]) == 0
    assert _summary(out3)["params"]["n"] == 96


def test_config_file_supplies_parameters(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"L": 0.5, "sigma": 10.0, "n": 96}\n')
    out = tmp_path / "out"
    assert main(["spdc", "--config", str(cfg), "--out", str(out)]) == 0
    s = _summary(out)
    assert s["params"]["L"] == 0.5
    assert s["params"]["n"] == 96
    # flags win over the config file
    out2 = tmp_path / "out2"
    assert main(["spdc", "--config", str(cfg), "--n", "128", "--out", str(out2)]) == 0
    assert _summary(out2)["params"]["n"] == 128


def test_window_flag_overrides_automatic_grid(tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "spdc",
            "--L",
            "0.5",
            "--sigma",
            "10",
            "--n",
            "64",
            "--window=-30,30,-30,30",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    w = _summary(out)["params"]["window"]
    assert (w["p_min"], w["p_max"], w["q_min"], w["q_max"]) == (-30.0, 30.0, -30.0, 30.0)


COORD_N64 = ["atom-photon-coord", "--xi0", "100", "--eta", "0.03", "--tau", "10", "--n", "64"]
MOMENTUM_N64 = ["atom-photon-momentum", "--xi0", "100", "--eta", "0.03", "--n", "64"]
SPDC_N64 = ["spdc", "--L", "0.5", "--sigma", "10", "--n", "64"]


# model: (argv at n = 64, a --window, the module whose global the probe
# reads, that global, and its whole steps a side at n nodes).  The
# momentum and SPDC probes' grid is their sampler's second argument; the
# coordinate probe's is the grid that grown_grid returns to it.
PROBES = {
    "coord": (COORD_N64, "-30,10,-200,60", atom_photon, "grown_grid", lambda n: math.ceil((n - 1) / 2)),
    "momentum": (MOMENTUM_N64, "-50,70,-5,7", atom_photon, "momentum_matrix", lambda n: math.ceil((n - 1) / 2)),
    "spdc": (SPDC_N64, "-30,30,-30,30", spdc, "spdc_matrix", lambda n: math.ceil((n - 1) / 4)),
}


@pytest.mark.parametrize("window", [False, True], ids=["auto", "window"])
@pytest.mark.parametrize("n", [64, 65])
@pytest.mark.parametrize("model", list(PROBES))
def test_every_probe_keeps_the_base_spacing_and_contains_its_nodes(tmp_path, monkeypatch, model, n, window):
    argv, flag, module, name, steps = PROBES[model]
    grids = []
    fn = getattr(module, name)

    def recording(*args):
        out = fn(*args)
        grids.append(out if name == "grown_grid" else args[1])
        return out

    # No base grows its grid, and only the momentum base samples through
    # the module's global, first and on its own grid, so the probe comes last.
    monkeypatch.setattr(module, name, recording)
    argv = [*argv[:-1], str(n), *([f"--window={flag}"] if window else [])]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    base = Grid(**_summary(tmp_path)["params"]["window"])
    if model == "momentum":
        assert grids.pop(0) == base
        # The probe grows the mesh the base weights come from: on the
        # automatic window, its thin pi mesh.
        base = atom_photon.momentum_thin_grid(AtomPhotonParams(100.0, 0.03, 1.0), base)
        assert (base.nq < n) != window
    (probe,) = grids
    assert probe.n == n + 2 * steps(n)
    assert_nests(probe, base)
    if model == "coord" and not window:
        # Behind the light front p = tau the decay span grows by half.
        assert probe.p_min <= 10.0 - 1.5 * atom_photon.COORD_DECAY_SPAN + 1e-12


@pytest.mark.parametrize(
    "argv",
    [COORD_N64, [*COORD_N64, "--window=-30,10,-200,60"], MOMENTUM_N64, SPDC_N64],
    ids=["coord", "coord-window", "momentum", "spdc"],
)
def test_grid_convergence_comes_from_the_model_probe(tmp_path, argv):
    assert main([*argv, "--out", str(tmp_path)]) == 0
    summary = _summary(tmp_path)
    grid = Grid(**summary["params"]["window"])
    opts = schmidt.DecompositionOptions()
    extra = {}
    if argv is SPDC_N64:
        params = spdc.spdc_params(0.5, 10.0)
        A = spdc.spdc_matrix(params, grid)
        big, big_F = spdc.spdc_probe(params, grid, opts)
        extra["dF"] = big_F.real - coherence(A).real
        base = schmidt.schmidt_decompose(A, opts)
    elif argv is MOMENTUM_N64:
        params = AtomPhotonParams(100.0, 0.03, 1.0)
        base = atom_photon.momentum_decomposition(params, grid, opts)
        big = atom_photon.momentum_probe(params, grid, opts)
    else:
        params = AtomPhotonParams(100.0, 0.03, 10.0)
        base = atom_photon.coord_decomposition(params, grid, opts)
        big = atom_photon.coord_capture_drift(params, grid, opts)
    assert summary["grid_convergence"] == {
        "lambda_drift": spectrum_drift(base, big),
        "dK": big.schmidt_number - base.schmidt_number,
        "dS": big.entropy - base.entropy,
        **extra,
    }


def test_capture_checks_and_the_cli_reach_one_probe_per_model(tmp_path, monkeypatch):
    calls = []
    for mod, name in (
        (atom_photon, "coord_capture_drift"),
        (atom_photon, "momentum_probe"),
        (spdc, "spdc_probe"),
    ):
        probe = getattr(mod, name)
        assert getattr(cli, name) is probe

        def counting(*args, _probe=probe, _name=name):
            calls.append(_name)
            return _probe(*args)

        for namespace in (mod, cli):
            monkeypatch.setattr(namespace, name, counting)
    # The coordinate run and the dynamics capture check share one probe.
    dynamics = [*DYNAMICS, "--eta", "0.03", "--n", "48", "--tau-list", "5,10"]
    for i, argv in enumerate((COORD_N64, MOMENTUM_N64, SPDC_N64, dynamics)):
        assert main([*argv, "--out", str(tmp_path / str(i))]) == 0
    assert calls == ["coord_capture_drift", "momentum_probe", "spdc_probe", "coord_capture_drift"]


def test_fig1_coordinate_probe_drifts_by_rounding_only(tmp_path):
    # The probe's nodes contain the base nodes, so it sees only the weight
    # outside the window: 1.2e-17 of the total.  Measured: 2.0e-18.
    assert main(["atom-photon-coord", "--fig1", "--out", str(tmp_path)]) == 0
    convergence = _summary(tmp_path)["grid_convergence"]
    assert convergence["lambda_drift"] <= 1e-14
    assert abs(convergence["dK"]) <= 1e-14


def test_coord_trunc_0_exits_3_from_the_thin_probe(tmp_path, capsys):
    # Every thin weight is kept, so the q nodes of the base's and of the
    # probe's real T = 0 samples could cut one.
    assert main([*COORD_N64, "--trunc", "0", "--out", str(tmp_path / "out")]) == 3
    assert "raise the truncation threshold (--trunc)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_momentum_trunc_0_exits_3_from_the_thin_pi_mesh(tmp_path, capsys):
    # --fig3 takes its weights from 25 pi nodes, and --trunc 0 keeps all 25.
    out = tmp_path / "out"
    assert main(["atom-photon-momentum", "--fig3", "--trunc", "0", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "the momentum amplitude's thin pi mesh kept all 25 of its q-node weights" in err
    assert "raise the truncation threshold (--trunc)" in err
    assert not out.exists()


def test_mode_tables_hold_each_cell_as_one_complex_scalar_gives_it(tmp_path):
    # The per-cell form the tables replaced; the sign of every zero counts.
    # On random modes np.abs(z) ** 2 differs from abs(z) ** 2 in a few cells.
    # The tables are float64 arrays, and write_csv writes them as it writes
    # the same cells given as lists of Python floats.
    rng = np.random.default_rng(7)
    modes = (rng.standard_normal((5, 5000)) + 1j * rng.standard_normal((5, 5000))) * 1e-3
    modes[1, :4] = [0.0, -0.0, complex(0.0, -0.0), complex(-0.0, 0.0)]
    coords = np.linspace(-60.0, 60.0, 5000)
    want_modes = [
        [float(x)] + [v for k in range(4) for v in (float(modes[k][i].real), float(modes[k][i].imag))]
        for i, x in enumerate(coords)
    ]
    want_density = [
        [float(x)] + [float(abs(modes[k][i]) ** 2) for k in range(4)] for i, x in enumerate(coords)
    ]
    for table, want in ((cli._modes_table, want_modes), (cli._density_table, want_density)):
        header, rows = table("p", coords, modes)
        assert rows.dtype == np.float64
        assert rows.tobytes() == np.array(want).tobytes()
        cli.write_csv(tmp_path / "array.csv", header, rows)
        cli.write_csv(tmp_path / "lists.csv", header, want)
        assert (tmp_path / "array.csv").read_bytes() == (tmp_path / "lists.csv").read_bytes()


def test_format_filter_limits_emitted_files(tmp_path):
    out = tmp_path / "out"
    args = ["spdc", "--L", "0.5", "--sigma", "10", "--n", "64", "--out", str(out)]
    assert main(args + ["--format", "json-summary"]) == 0
    assert (out / "summary.json").exists()
    assert not (out / "spectrum.csv").exists()
    assert not (out / "modes_o.csv").exists()

    out2 = tmp_path / "out2"
    f = tmp_path / "eye.txt"
    _write_matrix(f, np.eye(2))
    assert main(["decompose", str(f), "--out", str(out2), "--format", "csv-spectrum"]) == 0
    assert (out2 / "spectrum.csv").exists()
    assert not (out2 / "summary.json").exists()


def test_module_entry_point_subprocess(tmp_path):
    f = tmp_path / "eye.txt"
    _write_matrix(f, np.eye(2))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "schmidt_lab.cli", "decompose", str(f), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "completed in" in proc.stderr
    assert (out / "summary.json").exists()
    # no timestamps or durations leak into the data files
    assert "duration" not in (out / "summary.json").read_text()


def test_cli_import_starts_no_thread_pool_machinery():
    # The CLI runs every model in one thread; importing it must not pull in
    # concurrent.futures.  A fresh interpreter, since pytest may import it.
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    code = "import sys, schmidt_lab.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "False"


# (extra argv, files written, summary.json top-level keys, params keys) per
# subcommand, at meshes small enough to run in well under a second each.
OUTPUT_SCHEMA = {
    "atom-photon-coord": (
        ["--fig1", "--n", "48"],
        {"summary.json", "spectrum.csv", "modes_p.csv", "modes_q.csv", "laguerre_overlaps.csv"},
        ["schema", "command", "params", "validity", "results", "grid_convergence"],
        ["xi0", "eta", "tau", "n", "window", "trunc", "gauge"],
    ),
    "atom-photon-momentum": (
        ["--fig3", "--n", "32"],
        {
            "summary.json",
            "spectrum.csv",
            "modes_nu.csv",
            "modes_pi.csv",
            "densities_nu.csv",
            "densities_pi.csv",
        },
        ["schema", "command", "params", "validity", "asymptotics", "results", "grid_convergence"],
        ["xi0", "eta", "n", "window", "trunc", "gauge"],
    ),
    "atom-photon-dynamics": (
        ["--xi0", "100", "--eta", "0.03", "--tau-list", "1,10", "--n", "64"],
        {"summary.json", "sweep.csv"},
        ["schema", "command", "params", "validity", "results", "grid_convergence"],
        ["xi0", "eta", "tau_values", "n", "trunc"],
    ),
    "spdc": (
        ["--fig5", "--n", "64"],
        {"summary.json", "spectrum.csv", "modes_o.csv", "modes_e.csv"},
        ["schema", "command", "params", "results", "grid_convergence"],
        ["L", "sigma", "d_o", "d_e", "X_o", "X_e", "n", "window", "trunc", "gauge"],
    ),
    "spdc-length-sweep": (
        ["--L-list", "0.5", "--sigma", "10", "--n", "64"],
        {"summary.json", "sweep.csv"},
        ["schema", "command", "params", "results"],
        # the sweep samples one mesh, so it records it like the other models
        ["L_values", "sigma", "d_o", "d_e", "n", "window", "trunc"],
    ),
    "decompose": (
        ["eye.txt"],
        {"summary.json", "spectrum.csv", "modes_p.csv", "modes_q.csv"},
        ["schema", "command", "params", "results"],
        ["file", "n", "trunc", "gauge"],
    ),
}


@pytest.mark.parametrize("command", sorted(OUTPUT_SCHEMA))
def test_output_files_and_key_order(tmp_path, command):
    extra, files, top_keys, param_keys = OUTPUT_SCHEMA[command]
    _write_matrix(tmp_path / "eye.txt", np.eye(2))
    extra = [str(tmp_path / a) if a == "eye.txt" else a for a in extra]
    out = tmp_path / "out"
    assert main([command, *extra, "--out", str(out)]) == 0
    assert {f.name for f in out.iterdir()} == files
    s = _summary(out)
    assert list(s) == top_keys
    assert list(s["params"]) == param_keys


@pytest.mark.parametrize("command", sorted(OUTPUT_SCHEMA))
def test_repeat_runs_are_byte_identical(tmp_path, command):
    # Every table of every subcommand: spectra, modes, densities, overlaps
    # and both sweeps.
    extra, files, _, _ = OUTPUT_SCHEMA[command]
    _write_matrix(tmp_path / "eye.txt", np.eye(2))
    extra = [str(tmp_path / a) if a == "eye.txt" else a for a in extra]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main([command, *extra, "--out", str(out1)]) == 0
    assert main([command, *extra, "--out", str(out2)]) == 0
    for name in files:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# A flag the subcommand would ignore, given as a flag and as a config key.
IGNORED_FLAGS = [
    (["atom-photon-momentum", "--fig3"], "tau", "10"),
    (["atom-photon-dynamics", "--fig2"], "window", "-1,1,-1,1"),
    (["decompose", "m.txt"], "n", "4"),
    (["decompose", "m.txt"], "window", "-1,1,-1,1"),
    (["atom-photon-coord", "--fig1"], "jobs", "2"),
    (["atom-photon-momentum", "--fig3"], "jobs", "2"),
    (["spdc", "--fig5"], "jobs", "2"),
    (["decompose", "m.txt"], "jobs", "2"),
    # both sweeps decompose without modes, so a mode gauge changes nothing
    (["atom-photon-dynamics", "--fig2"], "gauge", "none"),
    (["spdc-length-sweep", "--fig4"], "gauge", "none"),
    # one photonic spectrum serves the whole dynamics sweep, so no jobs
    (["atom-photon-dynamics", "--fig2"], "jobs", "2"),
    # the length sweep runs its points one after another, in one thread
    (["spdc-length-sweep", "--fig4"], "jobs", "2"),
]


@pytest.mark.parametrize("argv,key,value", IGNORED_FLAGS)
def test_flags_a_subcommand_ignores_are_rejected(tmp_path, argv, key, value):
    with pytest.raises(SystemExit) as exc:
        main([*argv, f"--{key}={value}", "--out", str(tmp_path / "a")])
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    assert main([*argv, "--config", str(cfg), "--out", str(tmp_path / "b")]) == 2
    assert not (tmp_path / "b").exists()


PARSER_ARGVS = [
    *([name, "--help"] for name in cli.SUBCOMMANDS),
    ["--help"],
    ["bogus"],
    [],
    ["atom-photon-coord", "--fig2"],
]


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_main_parses_as_the_full_parser(monkeypatch, capsys, argv):
    # main gives flags to the invoked subcommand's parser only; its exit
    # code and text are the full parser's, from argv and from sys.argv.
    def outcome(parse):
        with pytest.raises(SystemExit) as exc:
            parse()
        return (exc.value.code, *capsys.readouterr())

    want = outcome(lambda: cli.build_parser().parse_args(argv))
    assert outcome(lambda: main(argv)) == want
    monkeypatch.setattr(sys, "argv", ["schmidt-lab", *argv])
    assert outcome(main) == want


# A valid text for each flag; a flag not listed takes "1".
FLAG_TEXT = {
    "n": "64", "window": "-1,1,-2,2", "gauge": "none", "out": "o", "format": "json-summary",
    "tau_steps": "3", "L_steps": "3", "tau_list": "1,2", "L_list": "1,2",
}


@pytest.mark.parametrize("name", list(cli.SUBCOMMANDS))
def test_the_parser_of_one_subcommand_reads_every_flag_as_the_full_one(name):
    cmd = cli.SUBCOMMANDS[name]
    argv = [name, *(f"--{fig}" for fig in cmd.figs), "--config", "c.json"]
    for key in cmd.flags:
        text = FLAG_TEXT.get(key, "1")
        argv += ["m.txt"] if key == "file" else [f"{cli._flag(key)}={text}"]
    assert vars(cli.build_parser(name).parse_args(argv)) == vars(cli.build_parser().parse_args(argv))


def test_decompose_ignores_default_n_env_var(tmp_path, monkeypatch):
    f = tmp_path / "eye.txt"
    _write_matrix(f, np.eye(3))
    monkeypatch.setenv(cli.ENV_DEFAULT_N, "x")
    assert main(["decompose", str(f), "--out", str(tmp_path / "out")]) == 0
    assert _summary(tmp_path / "out")["params"]["n"] == 3


def test_dynamics_honours_trunc(tmp_path):
    args = ["atom-photon-dynamics", "--xi0", "100", "--eta", "0.03", "--tau-list", "1,10"]
    out = tmp_path / "out"
    assert main([*args, "--n", "64", "--trunc", "0.5", "--out", str(out)]) == 0
    # Only the dominant photonic mode survives, so the composite spectrum
    # is the two-level one.
    header, rows = _read_csv(out / "sweep.csv")
    col = {name: i for i, name in enumerate(header)}
    for row in rows:
        assert float(row[col["K"]]) == pytest.approx(float(row[col["K0"]]), abs=1e-12)
        assert float(row[col["S"]]) == pytest.approx(float(row[col["S0"]]), abs=1e-12)
    assert _summary(out)["params"]["trunc"] == 0.5
    assert main([*args, "--n", "64", "--trunc", "7", "--out", str(tmp_path / "bad")]) == 2


def test_dynamics_sweep_leaves_warning_filters_alone(tmp_path, monkeypatch):
    # The tau < 3 advisory goes through the caller's filters; the sweep
    # must not change them, process-wide, to silence it.
    calls = []
    monkeypatch.setattr(warnings, "simplefilter", lambda *a, **k: calls.append(a))
    before = list(warnings.filters)
    argv = ["atom-photon-dynamics", "--xi0", "100", "--eta", "0.03", "--n", "48"]
    taus = "0.5,0.8,1.1,1.4,1.7,2.0,2.5,4"
    assert main([*argv, "--tau-list", taus, "--out", str(tmp_path / "o")]) == 0
    assert calls == []
    assert warnings.filters == before


DYNAMICS = ["atom-photon-dynamics", "--xi0", "100"]
DYNAMICS_TAUS = (0.1, 1.5, 2.9, 3.5, 7.0, 10.0)


@pytest.mark.filterwarnings("ignore:coordinate amplitude is a long-time approximation")
@pytest.mark.parametrize("n,eta", [(64, 0.03), (96, 0.03), (96, 0.08), (200, 0.03), (200, 0.08)])
def test_dynamics_rows_match_the_per_tau_route(tmp_path, n, eta):
    argv = [*DYNAMICS, "--eta", repr(eta), "--n", str(n)]
    taus = ",".join(map(repr, DYNAMICS_TAUS))
    assert main([*argv, "--tau-list", taus, "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "sweep.csv")
    got = np.array([[float(r[header.index(c)]) for c in ("K", "S")] for r in rows])
    spectra = [
        schmidt.schmidt_decompose(coord_matrix(params, coord_grid(params, n)), modes=False)
        for params in (AtomPhotonParams(100.0, eta, tau) for tau in DYNAMICS_TAUS)
    ]
    want = np.array([full_dynamics(tau, sp)[:2] for tau, sp in zip(DYNAMICS_TAUS, spectra)])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert tuple(float(r[0]) for r in rows) == DYNAMICS_TAUS
    convergence = _summary(tmp_path)["grid_convergence"]
    assert list(convergence) == ["endpoint_lambda_drift"]


def test_dynamics_exits_3_where_the_per_tau_route_fails_its_capture_check(tmp_path, monkeypatch, capsys):
    # A decay span of 10 cuts exp(-10) of the weight: the probe, 5 decay
    # lengths longer behind the front, sees it at every tau.
    monkeypatch.setattr(atom_photon, "COORD_DECAY_SPAN", 10.0)
    argv = [*DYNAMICS, "--eta", "0.03", "--n", "64"]
    taus = ",".join(map(repr, DYNAMICS_TAUS))
    assert main([*argv, "--tau-list", taus, "--out", str(tmp_path / "out")]) == 3
    assert "window capture check failed" in capsys.readouterr().err
    for tau in DYNAMICS_TAUS:
        params = AtomPhotonParams(100.0, 0.03, tau)
        probe = coord_capture_drift(params, coord_grid(params, 64))
        assert spectrum_drift(coord_spectrum(params, 64), probe) >= CAPTURE_TOL


@pytest.mark.filterwarnings("ignore:coordinate amplitude is a long-time approximation")
def test_dynamics_capture_failure_advice_can_be_followed(tmp_path, monkeypatch, capsys):
    # Dynamics rejects --window and no n restores a cut window, so the
    # message names the span constants.
    monkeypatch.setattr(atom_photon, "COORD_DECAY_SPAN", 10.0)
    argv = [*DYNAMICS, "--eta", "0.03", "--n", "64", "--tau-list", "1,10"]
    for n in ("64", "256"):
        argv[argv.index("--n") + 1] = n
        assert main([*argv, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "COORD_DECAY_SPAN" in err and "no n restores it" in err
        assert "--window" not in err and "raise n" not in err
    monkeypatch.setattr(atom_photon, "COORD_DECAY_SPAN", 20.0)
    assert main([*argv, "--out", str(tmp_path / "ok")]) == 0


@pytest.mark.parametrize("n", [199, 200, 201])
def test_dynamics_capture_verdict_does_not_depend_on_the_parity_of_n(tmp_path, n):
    # The probe's nodes contain the base nodes at every n.  When they did
    # not, n = 200 moved the spectrum by 1.0e-6 and exited 3.
    argv = [*DYNAMICS, "--eta", "0.5", "--n", str(n), "--tau-list", "0,10"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert _summary(tmp_path)["grid_convergence"]["endpoint_lambda_drift"] <= 1e-15


def _dynamics_decompositions(tmp_path, monkeypatch, taus):
    """(shape, dtype, modes) of each decomposition of a dynamics run at n = 64."""
    calls = []
    decompose = atom_photon.schmidt_decompose

    def counting(A, opts=schmidt.DecompositionOptions(), modes=True):
        calls.append((A.entries.shape, A.entries.dtype, modes))
        return decompose(A, opts, modes)

    def sampled(*args, **kwargs):
        raise AssertionError("a dynamics run samples no n x n matrix")

    for mod in (cli, atom_photon):
        monkeypatch.setattr(mod, "schmidt_decompose", counting)
    monkeypatch.setattr(atom_photon, "coord_matrix", sampled)
    argv = [*DYNAMICS, "--eta", "0.03", "--n", "64", "--tau-list", taus]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    return calls


# The spectrum, 64 p nodes by 28 q nodes, and its capture probe, the 96 p
# nodes of the grown window up to the light front by 42 q nodes: two real
# T = 0 samples, values only.
DYNAMICS_DECOMPOSITIONS = [((64, 28), np.float64, False), ((96, 42), np.float64, False)]


@pytest.mark.parametrize("count", [2, 5, 34])
def test_dynamics_decomposes_once_whatever_the_tau_count(tmp_path, monkeypatch, count):
    # The sweep decomposes its spectrum once, whatever the tau count; the
    # capture probe is the only other decomposition.
    taus = ",".join(repr(float(t)) for t in np.linspace(3.0, 10.0, count))
    assert _dynamics_decompositions(tmp_path, monkeypatch, taus) == DYNAMICS_DECOMPOSITIONS


def test_dynamics_with_one_positive_tau_decomposes_once(tmp_path, monkeypatch):
    # The meshes depend on tau only through the light front, so one
    # positive tau decomposes the same two real samples.
    assert _dynamics_decompositions(tmp_path, monkeypatch, "0,5") == DYNAMICS_DECOMPOSITIONS
    assert list(_summary(tmp_path)["grid_convergence"]) == ["endpoint_lambda_drift"]


def test_dynamics_warns_only_when_a_tau_is_below_3(tmp_path):
    # The sweep raises it once, for its smallest positive tau, before it
    # samples anything; a tau = 0 row is exact and does not warn.
    argv = [*DYNAMICS, "--eta", "0.03", "--n", "48"]
    with pytest.warns(UserWarning, match="only qualitative below tau = 3") as record:
        assert main([*argv, "--tau-list", "0.5,2.5,10", "--out", str(tmp_path / "a")]) == 0
    assert len(record) == 1
    for i, taus in enumerate(("3,10", "0,5")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--tau-list", taus, "--out", str(tmp_path / f"b{i}")]) == 0


def test_dynamics_zero_tau_row_and_invalid_taus(tmp_path):
    argv = [*DYNAMICS, "--eta", "0.03", "--n", "64"]
    assert main([*argv, "--tau-list", "0,5", "--out", str(tmp_path / "ok")]) == 0
    header, rows = _read_csv(tmp_path / "ok" / "sweep.csv")
    assert len(rows) == 2
    assert rows[0] == ["0", "1", "0", "1", "0", "0", "0"]


@pytest.mark.parametrize(
    "taus,message",
    [
        pytest.param("0", "needs at least one positive tau", id="0"),
        pytest.param("0,0", "needs at least one positive tau", id="0,0"),
        pytest.param("-1,5", "tau must be non-negative", id="-1,5"),
        pytest.param("5,nan", "tau must be non-negative", id="5,nan"),
    ],
)
def test_dynamics_without_a_positive_tau_exits_2_before_sampling(
    tmp_path, monkeypatch, capsys, taus, message
):
    # Every atom-photon sample, n x n or thin, goes through atom_photon._sample.
    sampled = []
    sample = atom_photon._sample

    def recording(amplitude, params, grid):
        sampled.append(params.tau)
        return sample(amplitude, params, grid)

    monkeypatch.setattr(atom_photon, "_sample", recording)
    argv = [*DYNAMICS, "--eta", "0.03", "--n", "48", f"--tau-list={taus}"]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert sampled == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, calls",
    [
        (["atom-photon-coord", "--fig1", "--n", "64"], [True, False]),
        (["atom-photon-coord", "--fig1", "--n", "64", "--window=-30,10,-200,60"], [False]),
        (["atom-photon-dynamics", "--fig2", "--n", "64"], [False, False]),
        (["atom-photon-momentum", "--fig3", "--n", "64"], []),
    ],
    ids=["coord", "coord-window", "dynamics", "momentum"],
)
def test_every_t0_factor_is_sampled_and_decomposed_in_one_function(tmp_path, monkeypatch, argv, calls):
    # The coordinate base (given its q-mode product), its probe and the
    # dynamics spectrum and probe each make one _t0_factor call, which
    # samples through _sample.
    seen, sampled = [], []
    t0_factor, sample = atom_photon._t0_factor, atom_photon._sample

    def recording(params, grid, margin, opts, product=None):
        before = len(sampled)
        result = t0_factor(params, grid, margin, opts, product)
        seen.append(product is not None)
        assert len(sampled) == before + 1
        return result

    def sampling(amplitude, params, grid):
        sampled.append(grid)
        return sample(amplitude, params, grid)

    monkeypatch.setattr(atom_photon, "_t0_factor", recording)
    monkeypatch.setattr(atom_photon, "_sample", sampling)
    assert main([*argv, "--out", str(tmp_path / "o")]) == 0
    assert seen == calls


def _files(out_dir):
    return {f.name: f.read_bytes() for f in sorted(Path(out_dir).iterdir())}


# Other parameters of each subcommand, as a config file.
CONFIG_BASE = {
    "spdc": {"L": 0.5, "sigma": 10.0, "n": 64},
    "spdc-length-sweep": {"L_list": [0.5, 1.0], "sigma": 10.0, "n": 64},
    "atom-photon-dynamics": {
        "xi0": 100.0,
        "eta": 0.03,
        "tau_start": 3.5,
        "tau_stop": 4.0,
        "tau_steps": 2,
        "n": 48,
    },
}

# A config value the flag's own type rejects, and text the error must name.
BAD_CONFIG = [
    ("spdc", {"n": 64.7}, "64.7"),
    ("atom-photon-dynamics", {"tau_steps": 3.9}, "3.9"),
    ("atom-photon-dynamics", {"n": 48.5}, "48.5"),
    ("spdc", {"L": True}, "True"),
    ("spdc", {"fig5": True}, "fig5"),
    ("spdc", {"format": ["json-summary", "bogus"]}, "bogus"),
]


@pytest.mark.parametrize("command,value,named", BAD_CONFIG)
def test_config_value_is_rejected_as_its_flag_text_would_be(
    tmp_path, capsys, command, value, named
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**CONFIG_BASE[command], **value}))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    (key,) = value
    assert f"'{key}'" in err and named in err
    assert not out.exists()


# A config value and the flags that must give the same files.
GOOD_CONFIG = [
    ("atom-photon-dynamics", {"tau_start": "3"}, ["--tau-start", "3"]),
    ("spdc", {"window": "-40,40,-40,40"}, ["--window=-40,40,-40,40"]),
    ("spdc", {"window": [-40, 40, -40, 40]}, ["--window=-40,40,-40,40"]),
    ("spdc", {"format": "csv-spectrum"}, ["--format", "csv-spectrum"]),
    ("atom-photon-dynamics", {"tau_list": [3, 4.5]}, ["--tau-list", "3,4.5"]),
]


@pytest.mark.parametrize("command,value,flags", GOOD_CONFIG)
def test_config_value_runs_as_its_flag_does(tmp_path, command, value, flags):
    base = tmp_path / "base.json"
    base.write_text(json.dumps(CONFIG_BASE[command]))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**CONFIG_BASE[command], **value}))
    from_config, from_flags = tmp_path / "c", tmp_path / "f"
    assert main([command, "--config", str(cfg), "--out", str(from_config)]) == 0
    assert main([command, "--config", str(base), *flags, "--out", str(from_flags)]) == 0
    assert _files(from_config) == _files(from_flags)


def test_unknown_gauge_exits_through_the_run_error_path(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["spdc", "--fig5", "--n", "64", "--gauge", "bogus", "--out", str(out)]) == 2
    assert "gauge must be one of" in capsys.readouterr().err
    assert not out.exists()


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    L=st.floats(0.1, 1.0),
    sigma=st.floats(2.0, 10.0),
    n=st.integers(72, 160),
    trunc=st.floats(0.0, 0.5),
    gauge=st.sampled_from(GAUGES),
    formats=st.lists(st.sampled_from(FORMATS), min_size=1, unique=True),
    half_width=st.none() | st.floats(20.0, 40.0),
)
def test_spdc_config_file_and_flags_write_identical_files(
    L, sigma, n, trunc, gauge, formats, half_width
):
    # n >= 72 resolves the sinc for X = d L sigma <= 2.66 on half-width 40.
    config = {"L": L, "sigma": sigma, "n": n, "trunc": trunc, "gauge": gauge, "format": formats}
    flags = ["--L", repr(L), "--sigma", repr(sigma), "--n", str(n), "--trunc", repr(trunc)]
    flags += ["--gauge", gauge, "--format", ",".join(formats)]
    if half_width is not None:
        config["window"] = [-half_width, half_width, -half_width, half_width]
        flags.append("--window=" + ",".join(repr(v) for v in config["window"]))
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(config))
        from_config, from_flags = Path(tmp) / "c", Path(tmp) / "f"
        assert main(["spdc", "--config", str(cfg), "--out", str(from_config)]) == 0
        assert main(["spdc", *flags, "--out", str(from_flags)]) == 0
        assert _files(from_config) == _files(from_flags)


def test_spdc_modes_write_no_negative_zero(tmp_path):
    # The SPDC amplitude is real, so every imaginary mode cell is zero; the
    # gauge used to write many of them as -0.
    assert main(["spdc", "--fig5", "--n", "64", "--out", str(tmp_path)]) == 0
    for name in ("modes_o.csv", "modes_e.csv"):
        header, rows = _read_csv(tmp_path / name)
        cells = [row[i] for row in rows for i, h in enumerate(header) if h.endswith("_im")]
        assert cells and set(cells) == {"0"}, name


def test_empty_format_selection_exits_2(tmp_path, capsys):
    args = ["spdc", "--fig5", "--n", "64"]
    with pytest.raises(SystemExit) as exc:
        main(args + ["--format", "", "--out", str(tmp_path / "flag")])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err
    for i, value in enumerate(([], "")):
        cfg = tmp_path / f"cfg{i}.json"
        cfg.write_text(json.dumps({"format": value}))
        out = tmp_path / f"config{i}"
        assert main(args + ["--config", str(cfg), "--out", str(out)]) == 2
        assert "'format'" in capsys.readouterr().err
        assert not out.exists()
    assert not (tmp_path / "flag").exists()


# Sweep K and S from the values-only route must match the full route on the
# same matrices to this absolute tolerance.  n = 272 resolves the SPDC sinc
# up to L = 4 at sigma = 10.
ROUTE_ATOL = 1e-12


@pytest.mark.parametrize(
    "argv",
    [
        ["spdc-length-sweep", "--L-list", "0.25,1,2,4", "--sigma", "10", "--n", "272"],
        ["atom-photon-dynamics", "--xi0", "100", "--eta", "0.03", "--tau-list", "4,7,10", "--n", "96"],
    ],
)
def test_sweep_values_only_route_matches_full_route(tmp_path, monkeypatch, argv):
    requested = []

    def full_route(A, opts=schmidt.DecompositionOptions(), modes=True):
        requested.append(modes)
        return schmidt.schmidt_decompose(A, opts)

    assert main(argv + ["--out", str(tmp_path / "values")]) == 0
    for mod in (cli, atom_photon):
        monkeypatch.setattr(mod, "schmidt_decompose", full_route)
    assert main(argv + ["--out", str(tmp_path / "full")]) == 0
    # Every sweep point, and the dynamics spectrum and its probe, read weights only.
    assert requested and not any(requested)
    header, values = _read_csv(tmp_path / "values" / "sweep.csv")
    _, full = _read_csv(tmp_path / "full" / "sweep.csv")
    cols = [header.index(c) for c in ("K", "S")]
    got = np.array([[float(r[c]) for c in cols] for r in values])
    want = np.array([[float(r[c]) for c in cols] for r in full])
    np.testing.assert_allclose(got, want, rtol=0, atol=ROUTE_ATOL)


@pytest.mark.parametrize(
    "argv",
    [
        ["spdc", "--L", "0.5", "--sigma", "10", "--n", "64"],
        ["spdc-length-sweep", "--L-list", "0.5,1", "--sigma", "10", "--n", "64"],
    ],
)
@pytest.mark.parametrize("flag, value", [("--d-o", "inf"), ("--d-e", "nan"), ("--d-o", "-inf")])
def test_non_finite_group_delay_exits_2(tmp_path, capsys, argv, flag, value):
    out = tmp_path / "out"
    assert main(argv + [f"{flag}={value}", "--out", str(out)]) == 2
    assert f"group delay {flag[2:].replace('-', '_')} must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_summary_json_round_trips_a_path_with_a_tab(tmp_path):
    f = tmp_path / "tab\there.txt"
    _write_matrix(f, np.eye(2))
    out = tmp_path / "out"
    assert main(["decompose", str(f), "--out", str(out)]) == 0
    assert _summary(out)["params"]["file"] == str(f)


SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize(
    "argv, files",
    [
        (["spdc", "--fig5", "--n", "96"], {"summary.json", "spectrum.csv", "modes_o.csv", "modes_e.csv"}),
        (
            ["atom-photon-dynamics", "--xi0", "100", "--eta", "0.03", "--tau-list", "2,10", "--n", "64"],
            {"summary.json", "sweep.csv"},
        ),
    ],
)
def test_separate_processes_write_byte_identical_files(tmp_path, argv, files):
    # Byte-identity holds at a pinned BLAS thread count, across interpreters.
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "PYTHONPATH": path}
    written = []
    for run in ("first", "second"):
        out = tmp_path / run
        cmd = [sys.executable, "-m", "schmidt_lab.cli", *argv, "--out", str(out)]
        subprocess.run(cmd, env=env, check=True, capture_output=True)
        written.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert set(written[0]) == files
    assert written[0] == written[1]


def test_non_utf8_path_leaves_no_empty_summary(tmp_path, capsys):
    # The path is echoed into summary.json, which is UTF-8: encoding fails
    # before the file is opened, so nothing is left half written.
    name = os.path.join(os.fsencode(tmp_path), b"m\xff.txt")
    with open(name, "wb") as fh:
        fh.write(b"1 0\n0 1\n")
    out = tmp_path / "out"
    assert main(["decompose", os.fsdecode(name), "--out", str(out)]) == 2
    assert "utf-8" in capsys.readouterr().err
    assert not (out / "summary.json").exists()
    assert [p for p in out.iterdir() if p.stat().st_size == 0] == []


def test_pure_states_write_positive_zero_entropy(tmp_path):
    # -x of a zero sum is -0.0, which the writers print as "-0".
    f = tmp_path / "rank1.txt"
    f.write_text("1 0\n0 0\n")
    runs = {
        "decompose": ["decompose", str(f)],
        "momentum": ["atom-photon-momentum", "--xi0", "100", "--eta", "1e-9", "--n", "64"],
    }
    for name, argv in runs.items():
        assert main([*argv, "--out", str(tmp_path / name)]) == 0
        assert '"S": 0,' in (tmp_path / name / "summary.json").read_text()
    argv = [*DYNAMICS, "--eta", "0.03", "--tau-list", "0,5", "--n", "64"]
    assert main([*argv, "--out", str(tmp_path / "dyn")]) == 0
    header, rows = _read_csv(tmp_path / "dyn" / "sweep.csv")
    assert (rows[0][header.index("S0")], rows[0][header.index("S")]) == ("0", "0")


def _count_spdc_work(monkeypatch):
    calls = []
    for name in ("spdc_matrix", "schmidt_decompose"):
        monkeypatch.setattr(cli, name, lambda *a, _name=name, **k: calls.append(_name))
    return calls


def test_length_sweep_checks_resolution_for_every_length_before_sampling(
    tmp_path, monkeypatch, capsys
):
    # The longest crystal, L = 4, needs n >= 272 on the default window.
    calls = _count_spdc_work(monkeypatch)
    for n in ("128", "137"):
        argv = ["spdc-length-sweep", "--fig4", "--n", n, "--out", str(tmp_path / n)]
        assert main(argv) == 3
        assert "use n >= 272" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("command", [["spdc", "--L", "0.5"], ["spdc-length-sweep", "--L-list", "0.5,1"]])
def test_unequal_spdc_windows_exit_2_before_sampling(tmp_path, monkeypatch, capsys, command):
    calls = _count_spdc_work(monkeypatch)
    argv = [*command, "--sigma", "10", "--window=-40,40,-20,20", "--n", "128"]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert "coherence requires identical p and q windows" in capsys.readouterr().err
    assert calls == []


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_flag_table_matches_the_subcommands():
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index(
        "| subcommand | model flags | presets | `--n` default | `--window` | `--gauge` |"
    )
    rows = {}
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        cells = [c.strip().replace("`", "") for c in line.strip("|").split("|")]
        rows[cells[0].split()[0]] = cells[1:]
    assert set(rows) == set(cli.SUBCOMMANDS)
    for name, cmd in cli.SUBCOMMANDS.items():
        model, presets, n_default, window, gauge = rows[name]
        own = {"n", "window", "gauge", "file", *cli.SHARED_FLAGS}
        flags = [cli._flag(k) for k in cmd.flags if k not in own]
        assert model.split() == (flags or ["none"]), name
        assert presets.split() == ([f"--{f}" for f in cmd.figs] or ["none"]), name
        if cmd.default_n is None:
            assert "n" not in cmd.flags and n_default.startswith("no --n"), name
        else:
            assert int(n_default) == cmd.default_n, name
        yes_no = {k: "yes" if k in cmd.flags else "no" for k in ("window", "gauge")}
        assert (window, gauge) == (yes_no["window"], yes_no["gauge"]), name
