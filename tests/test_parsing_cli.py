import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invlab
from invlab import cli, geometry, localization, parsing, sampling
from invlab.distances import kobayashi_distance, localization_gap

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_parse_complex_examples():
    assert parsing.parse_complex("0+0.5i") == 0.5j
    assert parsing.parse_complex("-0.28+0.96i") == -0.28 + 0.96j
    assert parsing.parse_complex("1e-3") == 1e-3
    assert parsing.parse_complex("i") == 1j
    assert parsing.parse_complex("-i") == -1j
    assert parsing.parse_complex("0.5i") == 0.5j
    assert parsing.parse_complex("1e-2i") == 1e-2j
    assert parsing.parse_complex("1+i") == 1 + 1j
    assert parsing.parse_complex("2-3i") == 2 - 3j


@pytest.mark.parametrize("bad", ["", "abc", "1+2", "--1i", "1i2", "1..2"])
def test_parse_complex_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parsing.parse_complex(bad)


@settings(max_examples=60, deadline=None)
@given(
    re=st.floats(-1e6, 1e6, allow_nan=False),
    im=st.floats(-1e6, 1e6, allow_nan=False),
)
def test_complex_format_round_trip(re, im):
    z = complex(re, im)
    assert parsing.parse_complex(parsing.format_complex(z)) == z


def test_parse_domain_literals():
    assert parsing.parse_domain("disc") == geometry.UnitDisc()
    assert parsing.parse_domain("halfplane") == geometry.HalfPlane()
    assert parsing.parse_domain("halfdisc:r=0.25") == geometry.HalfDiscScaled(0.25)
    assert parsing.parse_domain("ball:n=2") == geometry.Ball(2)
    assert parsing.parse_domain("polydisc:r=1,0.5") == geometry.Polydisc((1.0, 0.5))
    assert parsing.parse_domain("ellipsoid:p=1,2") == geometry.ReinhardtEllipsoid(
        (1.0, 2.0)
    )
    # the half-plane cap at the origin normalizes to a half-disc
    assert parsing.parse_domain("cap(halfplane;c=0;r=0.25)") == geometry.HalfDiscScaled(
        0.25
    )
    cap = parsing.parse_domain("cap(disc;c=0.5;r=0.3)")
    assert isinstance(cap, geometry.BallIntersection)
    with pytest.raises(ValueError):
        parsing.parse_domain("torus")
    with pytest.raises(ValueError):
        parsing.parse_domain("cap(disc;c=0.5)")


def test_cli_distance(capsys):
    code = cli.run_command(
        ["distance", "--domain", "disc", "--z", "0", "--w", "0.5", "--which", "k"]
    )
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(0.5493061, abs=1e-7)


@pytest.mark.parametrize(
    "domain, z, w, expected",
    [
        ("disc", "-0.1+0.01i", "0.25", (-0.1 + 0.01j, 0.25 + 0j)),
        ("disc", "-0.5i", "0.25", (-0.5j, 0.25 + 0j)),
        ("ball:n=2", "-0.1,-0.2i", "0.25,0", ((-0.1, -0.2j), (0.25, 0))),
    ],
)
def test_cli_accepts_negative_literals(domain, z, w, expected, capsys):
    # a literal after --z that starts with "-" must not be read as a flag
    assert cli.run_command(["distance", "--domain", domain, "--z", z, "--w", w]) == 0
    got = float(capsys.readouterr().out)
    want = kobayashi_distance(parsing.parse_domain(domain), *expected).value
    assert got == want


def test_cli_gap_row(capsys):
    code = cli.run_command(["gap", "--z", "0+0.5i", "--w", "0+0.25i"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "z,w,k_loc,k_glob,t1,t2,gap,residual"
    cells = lines[1].split(",")
    assert float(cells[6]) == pytest.approx(0.1115718, abs=1e-7)
    assert float(cells[7]) <= 1e-13
    assert float(cells[4]) == pytest.approx(math.log(15 / 14), abs=1e-12)
    assert float(cells[5]) == pytest.approx(0.5 * math.log(49 / 45), abs=1e-12)


def test_cli_validation_errors(capsys):
    assert cli.run_command(["distance", "--domain", "disc", "--z", "zz", "--w", "0"]) == 1
    assert "--z" in capsys.readouterr().err
    assert cli.run_command(["distance", "--domain", "torus", "--z", "0", "--w", "0"]) == 1
    assert "--domain" in capsys.readouterr().err
    assert cli.run_command(["distance", "--domain", "disc", "--z", "2", "--w", "0"]) == 1
    assert "--z" in capsys.readouterr().err
    # the half-plane is unbounded, yet a point at infinity is no member
    for z in ("inf+1i", "0+infi", "nan+1i"):
        assert cli.run_command(["distance", "--domain", "halfplane", "--z", z, "--w", "1i"]) == 1
        captured = capsys.readouterr()
        assert "--z" in captured.err and captured.out == ""


def test_cli_bergman_names_the_flag_at_fault(capsys):
    # too deep for the double range (171!, 0.5^1200) or negative: --truncation
    for domain, N in (("ball:n=2", "180"), ("polydisc:r=0.5,0.5", "600"), ("disc", "-1")):
        z = "0.1" if domain == "disc" else "0.1,0.1"
        argv = ["bergman", "--domain", domain, "--z", z, "--truncation", N]
        assert cli.run_command(argv) == 1
        captured = capsys.readouterr()
        assert "--truncation" in captured.err and "--domain" not in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
    # a domain without monomial moments stays a --domain error
    assert cli.run_command(["bergman", "--domain", "halfplane", "--z", "1i"]) == 1
    assert "--domain" in capsys.readouterr().err


def test_cli_geodesic_writes_curve(tmp_path, capsys):
    out = tmp_path / "curve.json"
    code = cli.run_command(
        [
            "geodesic",
            "--domain",
            "disc",
            "--z",
            "-0.5",
            "--w",
            "0.5",
            "--nodes",
            "33",
            "--levels",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"nodes", "length", "epsilon"}
    assert len(payload["nodes"]) == 33
    assert payload["nodes"][0] == [-0.5, 0.0]
    assert payload["length"] == pytest.approx(2 * math.atanh(0.5), rel=1e-4)
    assert payload["epsilon"] <= 1e-3


def test_cli_geodesic_nbergman_metric(tmp_path):
    out = tmp_path / "curve.json"
    code = cli.run_command(
        [
            "geodesic",
            "--domain",
            "disc",
            "--z",
            "0",
            "--w",
            "0.5",
            "--nodes",
            "17",
            "--levels",
            "1",
            "--metric",
            "nbergman",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["length"] == pytest.approx(math.atanh(0.5), rel=1e-3)


def test_cli_bergman_json(capsys):
    code = cli.run_command(
        ["bergman", "--domain", "disc", "--z", "0", "--X", "1", "--truncation", "50"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"kernel", "K_D", "beta", "beta_tilde", "tail"}
    assert payload["kernel"] == pytest.approx(1 / math.pi, abs=1e-12)
    assert payload["K_D"] == pytest.approx(1 / math.sqrt(math.pi), abs=1e-12)
    assert payload["beta"] == pytest.approx(math.sqrt(2), abs=1e-4)
    assert payload["beta_tilde"] == pytest.approx(1.0, abs=1e-4)


def test_cli_sweep_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--family", "random-cap", "--region", "0.05", "--samples", "64",
            "--seed", "7"]
    assert cli.run_command(args + ["--out", str(a)]) == 0
    assert cli.run_command(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header == "t,z,w,gap,rhs,ratio"
    other = tmp_path / "c.csv"
    assert (
        cli.run_command(
            ["sweep", "--family", "random-cap", "--region", "0.05", "--samples", "64",
             "--seed", "8", "--out", str(other)]
        )
        == 0
    )
    assert other.read_bytes() != a.read_bytes()


def test_cli_sweep_families(tmp_path):
    for family in ("imaginary-axis", "normal"):
        out = tmp_path / f"{family}.csv"
        code = cli.run_command(
            ["sweep", "--family", family, "--region", "0.1", "--samples", "8",
             "--out", str(out)]
        )
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 9
        # ratios stay near or below one on these families
        ratios = [float(r.split(",")[-1]) for r in rows[1:]]
        assert all(0.0 < r <= 1.05 for r in ratios)


def _reference_sweep_rows(family, region, samples, seed):
    """The CLI sweep built row by row from the validated scalar gap."""
    if family == "imaginary-axis":
        ts = np.geomspace(region * 1e-3, region, samples)
        pairs = [(1j * t, 0.5j * t) for t in ts]
    elif family == "random-cap":
        z, w = sampling.halfdisc_pairs(seed, samples, region)
        ts = np.abs(z - w)
        pairs = list(zip(z, w))
    else:
        ts = region * 2.0 ** -(np.arange(samples) + 6.0)
        pairs = [(2j * t, 1j * t) for t in ts]
    rows = []
    for t, (z, w) in zip(ts, pairs):
        g = localization_gap(complex(z), complex(w))
        if family == "random-cap":
            rhs = localization.planar_gap_bound(1.0, complex(z), complex(w), z.imag, w.imag)
        else:
            rhs = localization.two_term_gap_bound(complex(z), complex(w))
        rhs = float(rhs)
        rows.append((float(t), complex(z), complex(w), g.gap, rhs, g.gap / rhs))
    return rows


@pytest.mark.parametrize("family", ["imaginary-axis", "random-cap", "normal"])
@pytest.mark.parametrize("region, seed", [(0.3, 42), (0.05, 7)])
def test_cli_sweep_rows_match_the_per_row_gap(family, region, seed):
    got = cli._sweep_rows(family, region, 200, seed)
    want = _reference_sweep_rows(family, region, 200, seed)
    assert len(got) == 200
    for g, r in zip(got, want):
        assert all(type(a) is type(b) and a == b for a, b in zip(g, r)), (g, r)


def test_cli_sweep_rejects_an_underflowing_bound(capsys):
    # the normal family halves t per sample: past ~530 samples the bound is 0
    args = ["sweep", "--family", "normal", "--region", "1", "--samples", "600"]
    assert cli.run_command(args) == 1
    captured = capsys.readouterr()
    assert "--samples" in captured.err and captured.out == ""
    tiny = ["sweep", "--family", "imaginary-axis", "--region", "1e-300", "--samples", "4"]
    assert cli.run_command(tiny) == 1


def test_sharpness_study_reproduces_the_committed_table(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    script = os.path.join(REPO, "scripts", "sharpness_study.py")
    run = subprocess.run([sys.executable, script], cwd=tmp_path, env=env, capture_output=True)
    assert run.returncode == 0, run.stderr
    written = (tmp_path / "out" / "sharpness.csv").read_bytes()
    with open(os.path.join(REPO, "out", "sharpness.csv"), "rb") as fh:
        assert written == fh.read()


def test_bergman_truncation_study_reproduces_the_committed_table(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    script = os.path.join(REPO, "scripts", "bergman_truncation.py")
    run = subprocess.run([sys.executable, script], cwd=tmp_path, env=env, capture_output=True)
    assert run.returncode == 0, run.stderr
    written = (tmp_path / "out" / "bergman_truncation.csv").read_bytes()
    with open(os.path.join(REPO, "out", "bergman_truncation.csv"), "rb") as fh:
        assert written == fh.read()


def test_cli_verify_subset(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.run_command(
        ["verify", "--suite", "weight_bounds", "--seed", "42", "--out", str(out)]
    )
    assert code == 0
    assert "PASS weight_bounds" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["weight_bounds"]["pass"] is True
    assert "tolerance" in payload["weight_bounds"]


def test_cli_verify_unknown_suite(tmp_path, capsys):
    code = cli.run_command(["verify", "--suite", "nonsense"])
    assert code == 1


def test_config_file_overrides(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7, "solver": {"node_count": 17}}))
    out = tmp_path / "r.json"
    code = cli.run_command(
        ["--config", str(cfg), "verify", "--suite", "exponent_fits", "--seed", "42",
         "--out", str(out)]
    )
    assert code == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"tolerances": {"no_such": 1.0}}))
    assert cli.run_command(["--config", str(bad), "gap", "--z", "0.5i", "--w", "0.25i"]) == 1


def test_config_seed_applies_when_flag_absent(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7}))
    base = ["sweep", "--family", "random-cap", "--region", "0.05", "--samples", "16"]
    from_config = tmp_path / "config.csv"
    explicit = tmp_path / "explicit.csv"
    fallback = tmp_path / "fallback.csv"
    assert cli.run_command(["--config", str(cfg)] + base + ["--out", str(from_config)]) == 0
    assert cli.run_command(base + ["--seed", "7", "--out", str(explicit)]) == 0
    assert cli.run_command(base + ["--out", str(fallback)]) == 0  # default seed 42
    assert from_config.read_bytes() == explicit.read_bytes()
    assert fallback.read_bytes() != explicit.read_bytes()


def test_config_solver_applies_to_geodesic(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"solver": {"node_count": 17, "refinement_levels": 1}}))
    out = tmp_path / "curve.json"
    code = cli.run_command(
        ["--config", str(cfg), "geodesic", "--domain", "disc", "--z", "-0.5",
         "--w", "0.5", "--out", str(out)]
    )
    assert code == 0
    assert len(json.loads(out.read_text())["nodes"]) == 17


@pytest.mark.parametrize(
    "raw",
    [
        {"sead": 7},
        {"format": "csv"},
        {"solver": {"nodes": 17}},
        {"solver": {"node_count": 18}},
        {"solver": {"max_iterations": 2.5}},
        [42],
        {"seed": "abc"},
        {"tolerances": {"excursion": "loose"}},
    ],
    ids=[
        "unknown-key",
        "stale-format",
        "unknown-solver-key",
        "bad-solver-value",
        "fractional-iteration-count",
        "not-an-object",
        "bad-seed",
        "bad-tolerance",
    ],
)
def test_config_faults_name_the_flag(tmp_path, capsys, raw):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert cli.run_command(["--config", str(cfg), "gap", "--z", "0.5i", "--w", "0.25i"]) == 1
    captured = capsys.readouterr()
    assert "--config" in captured.err
    assert captured.out == ""


def test_run_verify_keeps_registry_order():
    from invlab import verify

    names = ["gap_decomposition", "weight_bounds", "exponent_fits"]
    report, ok = verify.run_verify(names[::-1], 42)
    assert ok
    assert list(report) == names  # registry order, not argument order


def test_import_loads_no_scipy():
    # scipy is imported inside the functions that need it, keeping it out of
    # the start-up of every CLI call
    src = os.path.dirname(os.path.dirname(invlab.__file__))
    code = "import sys, invlab; sys.exit('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_disc_ball_and_polydisc_bergman_load_no_scipy():
    # only the ellipsoid's Beta moments import scipy
    src = os.path.dirname(os.path.dirname(invlab.__file__))
    code = (
        "import sys\n"
        "from invlab.bergman import bergman_kernel_diag, bergman_metric_numeric, moment_table\n"
        "from invlab.geometry import Ball, Polydisc, UnitDisc\n"
        "for d, z, X in ((UnitDisc(), (0.3,), (1.0,)), (Ball(2), (0.3, 0.2j), (1.0, 0.5)),\n"
        "                (Polydisc((0.7, 1.3)), (0.3, 0.2j), (1.0, 0.5))):\n"
        "    moment_table(d, 20)\n"
        "    bergman_kernel_diag(d, z, 20)\n"
        "    bergman_metric_numeric(d, z, X, 20, 1e-3)\n"
        "sys.exit('scipy' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_ellipsoid_bergman_metric_loads_no_scipy_optimize():
    # the reach screen settles interior points without the SLSQP projection;
    # the Beta moments still load scipy.special; membership in a product or a
    # cap over the ellipsoid never asks for its boundary distance either
    src = os.path.dirname(os.path.dirname(invlab.__file__))
    code = (
        "import sys\n"
        "from invlab.bergman import bergman_metric_numeric\n"
        "from invlab.geometry import (\n"
        "    HalfPlane, Product, ReinhardtEllipsoid, contains, intersect_with_ball\n"
        ")\n"
        "e = ReinhardtEllipsoid((1.0, 2.0))\n"
        "bergman_metric_numeric(e, (0.3, 0.2j), (1.0, 0.5), 20, 1e-3)\n"
        "prod = Product((e, HalfPlane()))\n"
        "assert contains(prod, (0.3, 0.2j, 1j))\n"
        "assert not contains(prod, (0.3, 0.2j, -1j))\n"
        "assert not contains(prod, (0.99, 0.9, 1j))\n"
        "cap = intersect_with_ball(e, (0.3, 0.2j), 0.5)\n"
        "assert contains(cap, (0.4, 0.1j))\n"
        "assert not contains(cap, (0.9, 0.0))\n"
        "sys.exit('scipy.optimize' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
