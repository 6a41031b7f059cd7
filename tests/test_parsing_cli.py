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


@pytest.mark.parametrize(
    "argv",
    [
        ["distance", "--domain", "ball:n=2", "--z", "1e200,0", "--w", "0,0"],
        ["distance", "--domain", "ellipsoid:p=1,2", "--z", "1e200,0", "--w", "0,0"],
        ["distance", "--domain", "cap(disc;c=0;r=0.5)", "--z", "1e200", "--w", "0"],
        ["distance", "--domain", "cap(ball:n=2;c=0.1,0;r=0.5)", "--z", "-1.7e308,0", "--w", "0,0"],
        ["distance", "--domain", "ball:n=8", "--z", "1e200,0,0,0,0,0,0,0", "--w", "0,0,0,0,0,0,0,0"],
        ["distance", "--domain", "ellipsoid:p=1,200", "--z", "0,30", "--w", "0,0"],
        ["geodesic", "--domain", "ball:n=2", "--z", "1e200,0", "--w", "0,0"],
        ["bergman", "--domain", "ball:n=2", "--z", "1e200,0", "--X", "1,0"],
    ],
    ids=["ball", "ellipsoid", "cap", "ball-cap", "ball8", "ellipsoid-power", "geodesic", "bergman"],
)
def test_cli_refuses_a_point_past_the_square_range_by_name(argv, capsys):
    # the scalar membership test squares or powers no such coordinate: tier-1
    # turns numpy's overflow RuntimeWarning into an error (pyproject.toml)
    assert cli.run_command(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --z:") and "outside the domain" in captured.err
    assert captured.out == ""


def test_cli_refuses_a_subnormal_polydisc_radius_by_name(capsys):
    # 1/radius overflows below 2^-1022, so the distance would be NaN
    argv = ["distance", "--domain", "polydisc:r=1e-310,1", "--z", "0.5e-310,0.2", "--w", "0.25e-310,0.1"]
    assert cli.run_command(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --domain:") and "2^-1022" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


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


def test_geodesic_convergence_study_reproduces_the_committed_table(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    script = os.path.join(REPO, "scripts", "geodesic_convergence.py")
    run = subprocess.run([sys.executable, script], cwd=tmp_path, env=env, capture_output=True)
    assert run.returncode == 0, run.stderr
    written = (tmp_path / "out" / "geodesic_convergence.csv").read_bytes()
    with open(os.path.join(REPO, "out", "geodesic_convergence.csv"), "rb") as fh:
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


def test_sweep_and_verify_default_to_seed_42(tmp_path, capsys):
    sweep = ["sweep", "--family", "random-cap", "--region", "0.05", "--samples", "16"]
    verify = ["verify", "--suite", "gap_decomposition"]
    outputs = {}
    for seed in ([], ["--seed", "42"], ["--seed", "7"]):
        tag = "-".join(seed) or "default"
        table, report = tmp_path / f"{tag}.csv", tmp_path / f"{tag}.json"
        assert cli.run_command(sweep + seed + ["--out", str(table)]) == 0
        assert cli.run_command(verify + seed + ["--out", str(report)]) == 0
        outputs[tag] = (table.read_bytes(), report.read_bytes(), capsys.readouterr().out)
    assert outputs["default"] == outputs["--seed-42"]
    # the seed reaches all three outputs, so the equality above is not vacuous
    assert all(a != b for a, b in zip(outputs["default"], outputs["--seed-7"]))


def test_cli_geodesic_defaults_to_the_solver_defaults(tmp_path):
    from invlab import geodesics, metrics

    out = tmp_path / "curve.json"
    argv = ["geodesic", "--domain", "halfplane", "--z", "-0.1+0.01i", "--w", "0.1+0.01i"]
    assert cli.run_command(argv + ["--out", str(out)]) == 0
    density = metrics.kobayashi_density(geometry.HalfPlane())
    curve, length = geodesics.minimize_curve(
        density, -0.1 + 0.01j, 0.1 + 0.01j, geodesics.SolverConfig()
    )
    payload = json.loads(out.read_text())
    assert payload["nodes"] == [[c.real, c.imag] for c in curve.nodes[:, 0].tolist()]
    assert payload["length"] == length


def test_cli_geodesic_node_flags(tmp_path, capsys):
    out = tmp_path / "curve.json"
    argv = ["geodesic", "--domain", "disc", "--z", "-0.5", "--w", "0.5"]
    assert cli.run_command(argv + ["--nodes", "17", "--levels", "1", "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["nodes"]) == 17
    # not a power of two plus one
    assert cli.run_command(argv + ["--nodes", "18"]) == 1
    captured = capsys.readouterr()
    assert "--nodes" in captured.err and captured.out == ""
    # the deepest refinement starts from the bare chord: 4 >> 2 = 1 segment
    assert cli.run_command(argv + ["--nodes", "5", "--levels", "2", "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["nodes"]) == 5
    # the exact chord on three nodes, where the two-point rule undercuts the oracle
    for levels in ("0", "1"):
        assert cli.run_command(argv + ["--nodes", "3", "--levels", levels, "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["nodes"]) == 3


GEODESIC = ["geodesic", "--domain", "disc", "--z", "-0.5", "--w", "0.5"]
SWEEP = ["sweep", "--samples", "4"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["distance", "--domain", "disc", "--z", "0", "--w", "1.5"], "--w"),
        (["distance", "--domain", "ball:n=2", "--z", "0.1", "--w", "0,0"], "--z"),
        (["distance", "--domain", "torus", "--z", "0", "--w", "0.5"], "--domain"),
        (["distance", "--domain", "polydisc:r=inf,1", "--z", "5,0", "--w", "7,0"], "--domain"),
        (["distance", "--domain", "cap(disc;c=inf;r=0.5)", "--z", "0", "--w", "0"], "--domain"),
        (["gap", "--z", "2i", "--w", "0.25i"], "--z"),
        (["gap", "--z", "0.5i", "--w", "-0.25i"], "--w"),
        (["gap", "--z", "0.5i", "--w", "0.25i", "--r", "2"], "--r"),
        (GEODESIC + ["--nodes", "2.5"], "--nodes"),
        (GEODESIC + ["--levels", "-1"], "--levels"),
        (GEODESIC + ["--nodes", "5", "--levels", "3"], "--levels"),
        (["geodesic", "--domain", "halfplane", "--z", "1i", "--w", "2i", "--metric", "bergman"],
         "--metric"),
        (["geodesic", "--domain", "ellipsoid:p=1,2", "--z", "0.1,0", "--w", "0.2,0"], "--domain"),
        (["bergman", "--domain", "ball:n=2", "--z", "0.1,0.1", "--X", "1"], "--X"),
        (["bergman", "--domain", "disc", "--z", "0.1", "--X", "zz"], "--X"),
        (["bergman", "--domain", "ellipsoid:p=1,nan", "--z", "0,0"], "--domain"),
        (["bergman", "--domain", "disc", "--z", "0.999", "--X", "1"], "--z"),
        (["bergman", "--domain", "disc", "--z", "0.5", "--X", "1e308+1e308i"], "--z"),
        (["bergman", "--domain", "disc", "--z", "0.1", "--X", "1", "--truncation", "0"],
         "--truncation"),
        (SWEEP + ["--family", "imaginary-axis", "--region", "1.5"], "--region"),
        (SWEEP + ["--family", "random-cap", "--region", "0"], "--region"),
        (SWEEP + ["--family", "normal", "--region", "1.5"], "--region"),
        (["sweep", "--family", "normal", "--region", "0.5", "--samples", "1"], "--samples"),
        (SWEEP + ["--family", "normal", "--region", "0.5", "--seed", "abc"], "--seed"),
        (["sweep", "--family", "random-cap", "--region", "0.1", "--samples", "3", "--seed", "-1"],
         "--seed"),
        (["verify", "--suite", "nonsense"], "--suite"),
        (["verify", "--suite", "gap_decomposition", "--seed", "-1"], "--seed"),
    ],
    ids=[
        "distance-w-outside",
        "distance-dimension",
        "distance-unknown-domain",
        "distance-infinite-radius",
        "distance-cap-infinite-center",
        "gap-z-outside",
        "gap-w-outside",
        "gap-radius-out-of-range",
        "geodesic-fractional-nodes",
        "geodesic-negative-levels",
        "geodesic-levels-too-deep",
        "geodesic-metric-unsupported",
        "geodesic-default-metric-unsupported",
        "bergman-X-dimension",
        "bergman-X-malformed",
        "bergman-nan-exponent",
        "bergman-z-near-boundary",
        "bergman-stencil-overflow",
        "bergman-truncation-zero",
        "sweep-imaginary-axis-region",
        "sweep-random-cap-region",
        "sweep-normal-region",
        "sweep-one-sample",
        "sweep-bad-seed",
        "sweep-negative-seed",
        "verify-unknown-suite",
        "verify-negative-seed",
    ],
)
def test_cli_faults_name_the_flag(argv, flag, capsys):
    assert cli.run_command(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    # the diagnostic (after argparse's usage lines) names that flag and no other
    diagnostic = captured.err.strip().splitlines()[-1]
    others = {a for a in argv if a.startswith("--")} - {flag}
    assert flag in diagnostic, diagnostic
    assert not any(other in diagnostic for other in others), diagnostic


def test_run_verify_keeps_registry_order():
    from invlab import verify

    names = ["gap_decomposition", "weight_bounds", "exponent_fits"]
    report, ok = verify.run_verify(names[::-1], 42)
    assert ok
    assert list(report) == names  # registry order, not argument order


def test_numpy_is_the_only_runtime_dependency():
    # numpy is the only runtime dependency: the CLI start-up, every Bergman
    # path (each moment is a closed form in math, the ellipsoid's too), the
    # ellipsoid's boundary projection, membership in a product or a cap over
    # the ellipsoid, and the weight integrals import no other distribution
    src = os.path.dirname(os.path.dirname(invlab.__file__))
    code = (
        "import sys\n"
        "from importlib.metadata import packages_distributions\n"
        "start = set(sys.modules)\n"
        "def loaded():\n"
        "    dists = packages_distributions()\n"
        "    names = {m.partition('.')[0] for m in set(sys.modules) - start}\n"
        "    return {d for m in names for d in dists.get(m, ())} - {'invlab'}\n"
        "import invlab.cli\n"
        "assert loaded() == {'numpy'}, loaded()\n"
        "from invlab import verify\n"
        "from invlab.bergman import bergman_kernel_diag, bergman_metric_numeric, moment_table\n"
        "from invlab.geometry import (\n"
        "    Ball, HalfPlane, Polydisc, Product, ReinhardtEllipsoid, UnitDisc,\n"
        "    boundary_distance, contains, intersect_with_ball\n"
        ")\n"
        "for d, z, X in ((UnitDisc(), (0.3,), (1.0,)), (Ball(2), (0.3, 0.2j), (1.0, 0.5)),\n"
        "                (Polydisc((0.7, 1.3)), (0.3, 0.2j), (1.0, 0.5)),\n"
        "                (ReinhardtEllipsoid((1.0, 2.0)), (0.3, 0.2j), (1.0, 0.5)),\n"
        "                (ReinhardtEllipsoid((1.0, 2.0, 0.7)), (0.3, 0.2j, 0.1), (1.0, 0.5, 0.2j))):\n"
        "    moment_table(d, 20)\n"
        "    bergman_kernel_diag(d, z, 20)\n"
        "    bergman_metric_numeric(d, z, X, 20, 1e-3)\n"
        "# rows on both sides of Gamma's overflow edge\n"
        "moment_table(ReinhardtEllipsoid((0.12, 2.0)), 20)\n"
        "e = ReinhardtEllipsoid((1.0, 2.0))\n"
        "bergman_metric_numeric(e, (0.3, 0.2j), (1.0, 0.5), 20, 1e-3)\n"
        "assert 0.0 < boundary_distance(e, (0.3, 0.2j)) < 1.0\n"
        "assert 0.0 < boundary_distance(ReinhardtEllipsoid((0.75, 1.5, 3.0)), (0.1, 0j, 0.5j)) < 1.0\n"
        "# step 0.1 at a point 0.3 from the boundary: the stencil check is membership\n"
        "assert bergman_metric_numeric(e, (0.7, 0.0), (1.0, 0.0), 20, 0.1) > 0.0\n"
        "prod = Product((e, HalfPlane()))\n"
        "assert contains(prod, (0.3, 0.2j, 1j))\n"
        "assert not contains(prod, (0.3, 0.2j, -1j))\n"
        "assert not contains(prod, (0.99, 0.9, 1j))\n"
        "cap = intersect_with_ball(e, (0.3, 0.2j), 0.5)\n"
        "assert contains(cap, (0.4, 0.1j))\n"
        "assert not contains(cap, (0.9, 0.0))\n"
        "assert verify.run_verify(['weight_bounds'], 42)[1]\n"
        "assert loaded() == {'numpy'}, loaded()\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
