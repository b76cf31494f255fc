import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lyaplab
from lyaplab import cli, fuchsian, linrep, oseledets

from conftest import save_rep


def run_cli(args):
    return cli.main(args)


def write_rep(path, generators, relations):
    save_rep(linrep.Representation(2, "real", generators, relations, "t",
                                   projective_flag=True), path)
    return str(path)


def per_point_sweep_csv(axis, grid, run):
    """The sweep CSV of surface:2 as a loop over the grid: one
    estimate_spectrum per bent representation on one shared coding."""
    spec = fuchsian.parse_group_spec("surface:2")
    bundle = fuchsian.build_group(spec)
    rep = cli.resolve_rep("builtin:fuchsian", bundle)
    split = cli._bend_split_for(rep, spec)
    coding = oseledets.code_samples(bundle[0], run)
    lines = ["parameter,lambda1,stderr,status"]
    for v in grid:
        s = complex(0.0, v) if axis == "imag" else complex(v, 0.0)
        try:
            bent = rep if s == 0 else fuchsian.bend_representation(rep, split, s)
            est = oseledets.estimate_spectrum(bundle[0], bent, run, coding)
            lines.append(f"{v:.12g},nan,nan,failed:unresolved" if est.unresolved else
                         f"{v:.12g},{est.values[0]:.12g},{est.stderr[0]:.12g},ok")
        except (fuchsian.DegenerateBendingError, linrep.RepresentationError,
                oseledets.InsufficientDataError) as exc:
            lines.append(f"{v:.12g},nan,nan,failed:{type(exc).__name__}")
    return "\n".join(lines) + "\n"


def last_row_and_err(csv_text):
    """(running_err of the last row, the # err= value) of an err CSV."""
    lines = csv_text.strip().split("\n")
    summary = [l for l in lines if l.startswith("#")][0]
    rows = [l for l in lines if not l.startswith("#")]
    return rows[-1].split(",")[3], summary.split("err=")[1].split()[0]


class TestSpectrumCommand:
    def test_trivial_zero_spectrum(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = run_cli(["spectrum", "--group", "triangle:3,3,4",
                        "--rep", "builtin:trivial", "--time", "50",
                        "--samples", "4", "--seed", "1", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "label,i,lambda,stderr,samples,T,seed,normalization"
        for ln in lines[1:]:
            assert float(ln.split(",")[2]) == 0.0

    def test_corrupted_rep_refused(self, tmp_path):
        bad = tmp_path / "bad.rep"
        bad.write_text(
            "n=2 field=real projective=1 label=bad\n\n"
            "0.5001 -0.8660254037844386\n0.8660254037844387 0.5\n\n"
            "0.5 -1.7917602\n0.4185832 0.5\n\n"
            "1.30171 -1.3288\n0.6423 0.1125\n"
            "relations:\n1 1 1\n2 2 2\n3 3 3 3\n1 2 3\n")
        out = tmp_path / "never.csv"
        code = run_cli(["spectrum", "--rep", str(bad), "--group", "triangle:3,3,4",
                        "--time", "50", "--samples", "4", "--seed", "1",
                        "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_byte_identical_for_same_command(self, tmp_path):
        args = ["spectrum", "--group", "triangle:3,3,4", "--time", "80",
                "--samples", "4", "--seed", "9"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_io_error_exit_3(self):
        code = run_cli(["spectrum", "--time", "50", "--samples", "2",
                        "--seed", "1", "--out", "/nonexistent-dir/x.csv"])
        assert code == 3

    def test_svg_written(self, tmp_path):
        svg = tmp_path / "p.svg"
        code = run_cli(["spectrum", "--time", "50", "--samples", "2",
                        "--seed", "1", "--out", str(tmp_path / "s.csv"),
                        "--svg", str(svg)])
        assert code == 0
        assert svg.read_text().startswith("<svg")

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("group=triangle:3,3,4\ntime=50\nsamples=4\nseed=3\n")
        out1 = tmp_path / "c1.csv"
        assert run_cli(["spectrum", "--config", str(cfg), "--out", str(out1)]) == 0
        assert ",50," in out1.read_text()
        out2 = tmp_path / "c2.csv"
        assert run_cli(["spectrum", "--config", str(cfg), "--time", "60",
                        "--out", str(out2)]) == 0
        assert ",60," in out2.read_text()


class TestRepresentationRefusals:
    def test_builtin_generator_count_mismatch(self, tmp_path):
        # unitary-cube has 3 generators; surface:2 has 4
        assert run_cli(["spectrum", "--group", "surface:2", "--rep",
                        "builtin:unitary-cube", "--time", "50", "--samples", "2",
                        "--seed", "1", "--out", str(tmp_path / "x.csv")]) == 2

    def test_file_with_too_few_generators(self, tmp_path):
        rep = write_rep(tmp_path / "two.rep", [np.eye(2), np.eye(2)], [(1, 2, -1, -2)])
        assert run_cli(["spectrum", "--group", "surface:2", "--rep", rep,
                        "--time", "50", "--samples", "2", "--seed", "1",
                        "--out", str(tmp_path / "x.csv")]) == 2

    def test_file_with_extra_generator(self, tmp_path):
        _, gens, rels = fuchsian.build_group(fuchsian.GroupSpec.triangle(3, 3, 4))
        mats = [np.real_if_close(g.mat) for g in gens] + [np.eye(2)]
        rep = write_rep(tmp_path / "four.rep", mats, rels)
        out = tmp_path / "never.csv"
        assert run_cli(["spectrum", "--group", "triangle:3,3,4", "--rep", rep,
                        "--time", "50", "--samples", "2", "--seed", "1",
                        "--out", str(out)]) == 2
        assert not out.exists()

    def test_overflowed_relation_refused(self, tmp_path):
        big = np.diag([1e200, 1e-200])
        rep = write_rep(tmp_path / "big.rep", [big, np.eye(2), np.eye(2)], [(1, 1)])
        assert run_cli(["rep", "--group", "triangle:3,3,4", "--rep", rep,
                        "--check", "--out", str(tmp_path / "x.rep")]) == 2
        assert run_cli(["spectrum", "--group", "triangle:3,3,4", "--rep", rep,
                        "--time", "50", "--samples", "2", "--seed", "1",
                        "--out", str(tmp_path / "x.csv")]) == 2

    def test_overflow_refusal_is_the_only_stderr_line(self, tmp_path):
        big = np.diag([1e200, 1e-200])
        rep = write_rep(tmp_path / "big.rep", [big, np.eye(2), np.eye(2)], [(1, 1)])
        src = str(Path(lyaplab.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "lyaplab.cli", "rep", "--group", "triangle:3,3,4",
             "--rep", rep, "--check", "--out", str(tmp_path / "x.rep")],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "lyaplab: refused: relation check failed: residual inf (relative inf)"]

    def test_overflowing_twist_refusal_is_the_only_stderr_line(self):
        # e^(2s) overflows at s = 400; no numpy warning precedes the refusal
        src = str(Path(lyaplab.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "lyaplab.cli", "spectrum", "--group", "surface:2",
             "--transform", "bend:400,0"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 2
        assert proc.stderr == "lyaplab: invalid input: non-finite generator entries\n"

    @pytest.mark.parametrize("command", [
        ["spectrum", "--time", "50", "--samples", "2", "--seed", "1"],
        ["rep", "--check"],
    ])
    def test_unit_scale_relations_closing_to_1e7_refused(self, tmp_path, capsys, command):
        # the Fuchsian rep with one entry nudged by 5e-8: at unit scale its
        # relations close only to 1.1e-7, far above rounding level
        _, gens, rels = fuchsian.build_group(fuchsian.GroupSpec.triangle(3, 3, 4))
        mats = [np.array(g.mat) for g in gens]
        mats[0][0, 0] += 5e-8
        rep = write_rep(tmp_path / "nudged.rep", mats, rels)
        report = linrep.check_relations(linrep.load_rep(rep))
        assert 1e-7 < report.max_relative <= report.max_residual < 2e-7
        assert run_cli([*command, "--group", "triangle:3,3,4", "--rep", rep,
                        "--out", str(tmp_path / "never.out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "relation check failed" in err[0]
        assert not (tmp_path / "never.out").exists()


class TestTransforms:
    def test_sym_then_ext_chain(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run_cli(["spectrum", "--transform", "sym:2", "--transform",
                        "ext:2", "--time", "60", "--samples", "4",
                        "--seed", "2", "--out", str(out)])
        assert code == 0
        assert len(out.read_text().strip().split("\n")) == 4  # header + 3 rows

    def test_bend_needs_surface(self, tmp_path):
        code = run_cli(["spectrum", "--group", "triangle:3,3,4",
                        "--transform", "bend:0,1", "--time", "50",
                        "--samples", "2", "--seed", "1",
                        "--out", str(tmp_path / "x.csv")])
        assert code == 2


class TestSweepCommand:
    def test_zero_point_matches_base(self, tmp_path):
        sweep_out = tmp_path / "sweep.csv"
        base_out = tmp_path / "base.csv"
        common = ["--group", "surface:2", "--time", "120", "--samples", "6",
                  "--seed", "4"]
        assert run_cli(["sweep", "--axis", "imag", "--grid", "0:1:2",
                        "--out", str(sweep_out)] + common) == 0
        assert run_cli(["spectrum", "--out", str(base_out)] + common) == 0
        srow = sweep_out.read_text().strip().split("\n")[1].split(",")
        brow = base_out.read_text().strip().split("\n")[1].split(",")
        lam_s, se_s = float(srow[1]), float(srow[2])
        lam_b, se_b = float(brow[2]), float(brow[3])
        assert srow[3] == "ok"
        assert abs(lam_s - lam_b) <= 3 * math.hypot(se_s, se_b) + 1e-12

    def test_rows_monotone_grid_and_svg(self, tmp_path):
        out = tmp_path / "sweep.csv"
        svg = tmp_path / "sweep.svg"
        assert run_cli(["sweep", "--group", "surface:2", "--axis", "real",
                        "--grid", "0,1,2", "--time", "60", "--samples", "4",
                        "--seed", "4", "--out", str(out), "--svg", str(svg)]) == 0
        rows = out.read_text().strip().split("\n")[1:]
        params = [float(r.split(",")[0]) for r in rows]
        assert params == sorted(params)
        assert svg.read_text().startswith("<svg")

    def test_large_twist_rows_not_refused(self, tmp_path):
        # entries reach ~e^32; the relation gate must fall back to the
        # backward-stability residual instead of refusing.  So twist 16 fails
        # only by its conditioning, which no QR interval resolves
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--group", "surface:2", "--axis", "real",
                        "--grid", "4,16", "--time", "60", "--samples", "4",
                        "--seed", "4", "--out", str(out)]) == 0
        rows = [r.split(",") for r in out.read_text().strip().split("\n")[1:]]
        assert rows[0][3] == "ok" and float(rows[0][1]) > 1.0
        assert rows[1] == ["16", "nan", "nan", "failed:unresolved"]

    def test_each_geodesic_traced_once(self, tmp_path, monkeypatch):
        real, traced = oseledets.trace_geodesic, []

        def counting(dom, ut, T):
            traced.append(ut)
            return real(dom, ut, T)

        monkeypatch.setattr(oseledets, "trace_geodesic", counting)
        assert run_cli(["sweep", "--group", "surface:2", "--axis", "imag",
                        "--grid", "0:1:3", "--time", "60", "--samples", "4",
                        "--seed", "4", "--out", str(tmp_path / "s.csv")]) == 0
        assert len(traced) == 4

    @pytest.mark.parametrize("axis,grid", [("imag", "0:2:11"), ("real", "0,1,2,4,8,16")])
    def test_fused_csv_equals_per_point_loop(self, tmp_path, monkeypatch, axis, grid):
        # the real grid's twists reach entries of about e^32
        run = oseledets.RunConfig(T=100.0, samples=5, seed=4)
        expected = per_point_sweep_csv(axis, cli._parse_grid(grid), run)
        args = ["sweep", "--group", "surface:2", "--axis", axis, "--grid", grid,
                "--time", "100", "--samples", "5", "--seed", "4"]
        fused, chunked = tmp_path / "fused.csv", tmp_path / "chunked.csv"
        assert run_cli(args + ["--out", str(fused)]) == 0
        assert fused.read_text() == expected
        # one fused lane per chunk, then chunks of 3 (complex) or 6 (real)
        # lanes that cut across the 5 samples of a representation
        for budget in (1, 200):
            monkeypatch.setattr(oseledets, "FRAME_BUDGET", budget)
            assert run_cli(args + ["--out", str(chunked)]) == 0
            assert chunked.read_bytes() == fused.read_bytes()

    # bytes and exit codes recorded before the grid was bent in one call; the
    # real grid has ok, unresolved, relation-gate and validation rows
    @pytest.mark.parametrize("axis,grid,csv", [
        ("real", "-16,-8,-1,0,0.5,2,8,16,60,400",
         "parameter,lambda1,stderr,status\n"
         "-16,nan,nan,failed:unresolved\n"
         "-8,nan,nan,failed:unresolved\n"
         "-1,1.05642365901,0.0594287309838,ok\n"
         "0,0.996802094959,0.00333490198186,ok\n"
         "0.5,1.06492201052,0.0108464043727,ok\n"
         "2,1.53528333819,0.0349582085198,ok\n"
         "8,nan,nan,failed:unresolved\n"
         "16,nan,nan,failed:unresolved\n"
         "60,nan,nan,failed:DegenerateBendingError\n"
         "400,nan,nan,failed:RepresentationError\n"),
        ("imag", "0:3:7",
         "parameter,lambda1,stderr,status\n"
         "0,0.996802094959,0.00333490198186,ok\n"
         "0.5,0.958203316742,0.00191933272465,ok\n"
         "1,0.823290496362,0.0212590019016,ok\n"
         "1.5,0.617114442815,0.0162695364271,ok\n"
         "2,0.753452233132,0.0326550169213,ok\n"
         "2.5,0.931961021646,0.00530404837619,ok\n"
         "3,0.993793492549,0.00294153643016,ok\n"),
    ], ids=["real", "imag"])
    def test_pinned_sweep_csv(self, tmp_path, axis, grid, csv):
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--group", "surface:2", "--axis", axis, f"--grid={grid}",
                        "--time", "60", "--samples", "4", "--out", str(out)]) == 0
        assert out.read_bytes() == csv.encode()

    # sha256 of the CSV of sweep-bend's four command lines, recorded while
    # complex rank-2 product trees multiplied complex 2 x 2 stacks
    @pytest.mark.parametrize("seed, digest", [
        (900, "c9bd62caae408af6acef6f43133f359682d3b1d4735bd4be6aed4b8948ce32ed"),
        (901, "6ea4f16712c0b921042a1be444ad15e807641052085c4ce9cc2040a3cbb47877"),
        (902, "c97758c59ca1b1907b95fd4b2e8c60a271bb77118f55ca3fbe9a2923ff829c03"),
        (903, "07b0a351e0351313de59af4ee6b13c4889fca0b50f5766e8b6d5657d569a0a2d"),
    ])
    def test_pinned_bench_sweep_csv(self, tmp_path, seed, digest):
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--group", "surface:2", "--axis", "imag", "--grid", "0:2:11",
                        "--time", "500", "--samples", "4", "--seed", str(seed),
                        "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    # one chunk per scalar field and QR interval: the real twists 0, 0.5 and
    # 1 run at q = 8, 6 and 4
    @pytest.mark.parametrize("axis,fields", [("imag", [False, True]),
                                             ("real", [False, False, False])])
    def test_real_rep_never_promoted(self, tmp_path, monkeypatch, axis, fields):
        built = []
        real = oseledets._lockstep

        def recording(table, *args):
            built.append(table.dtype == complex)
            return real(table, *args)

        monkeypatch.setattr(oseledets, "_lockstep", recording)
        assert run_cli(["sweep", "--group", "surface:2", "--axis", axis,
                        "--grid", "0,0.5,1", "--time", "60", "--samples", "4",
                        "--seed", "4", "--out", str(tmp_path / "s.csv")]) == 0
        assert sorted(built) == fields


def csv_rows(path):
    return [r.split(",") for r in path.read_text().strip().split("\n")[1:]]


class TestResolvedSpectra:
    """Every printed exponent is resolved, or the run refuses or fails its row."""

    @pytest.mark.parametrize("group,k", [("surface:2", 3), ("surface:3", 2)])
    def test_sym_power_exact_at_default_flags(self, tmp_path, group, k):
        out = tmp_path / "s.csv"
        assert run_cli(["spectrum", "--group", group, "--transform", f"sym:{k}",
                        "--out", str(out)]) == 0
        rows = csv_rows(out)
        lam, se = (np.array([float(r[i]) for r in rows]) for i in (2, 3))
        assert np.all(np.abs(lam - np.arange(k, -k - 1, -2)) <= 3 * se)

    def test_readme_real_sweep_fails_unresolved_twists(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--group", "surface:2", "--axis", "real", "--grid",
                        "0,1,2,4,8,16", "--time", "500", "--samples", "16", "--seed", "9",
                        "--out", str(out)]) == 0
        assert [r[3] for r in csv_rows(out)] == ["ok"] * 4 + ["failed:unresolved"] * 2

    def test_zero_row_independent_of_other_points(self, tmp_path):
        args = ["sweep", "--group", "surface:2", "--axis", "real", "--time", "100",
                "--samples", "4", "--seed", "4"]
        both, alone = tmp_path / "both.csv", tmp_path / "alone.csv"
        assert run_cli(args + ["--grid", "0,16", "--out", str(both)]) == 0
        assert run_cli(args + ["--grid", "0", "--out", str(alone)]) == 0
        assert csv_rows(both)[0] == csv_rows(alone)[0]


class TestErrCommand:
    def test_identity_lower_half_zero(self, tmp_path):
        out = tmp_path / "err.csv"
        code = run_cli(["err", "--dev", "identity", "--covector", "1 -0.5+2i",
                        "--center", "0,1", "--tmax", "20",
                        "--grid-nodes", "120", "--out", str(out)])
        # covector [1, -w] with w = 0.5 - 2i in the lower half-plane
        assert code == 0
        last = [l for l in out.read_text().strip().split("\n")
                if l.startswith("#")][0]
        assert "err=0 " in last

    def test_veronese_counts(self, tmp_path):
        out = tmp_path / "err.csv"
        code = run_cli(["err", "--dev", "veronese:3", "--covector", "1 0 1",
                        "--center", "0,2", "--tmax", "12",
                        "--grid-nodes", "150", "--out", str(out)])
        assert code == 0
        rows = [l for l in out.read_text().strip().split("\n")
                if not l.startswith("#")][1:]
        counts = [int(r.split(",")[1]) for r in rows]
        assert counts[0] == 0 and counts[-1] == 1

    def test_last_running_err_is_err(self, tmp_path):
        out = tmp_path / "err.csv"
        assert run_cli(["err", "--dev", "veronese:3", "--covector", "1 0 1",
                        "--center", "0,2", "--tmax", "20", "--grid-nodes", "150",
                        "--out", str(out)]) == 0
        last, err = last_row_and_err(out.read_text())
        assert float(err) > 0 and last == err

    def test_missing_covector_refused(self):
        assert run_cli(["err", "--dev", "identity"]) == 2

    def test_ode_kind_refused_from_cli(self, capsys):
        assert run_cli(["err", "--dev", "ode", "--covector", "1 0"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("lyaplab: refused: ")
        assert "identity | veronese:n" in err[0]


class TestOrbitCountCommand:
    def test_small_calibration(self, tmp_path):
        out = tmp_path / "orbit.csv"
        code = run_cli(["orbit-count", "--group", "triangle:3,3,4",
                        "--tmax", "9", "--grid-nodes", "150",
                        "--out", str(out)])
        assert code == 0
        summary = [l for l in out.read_text().strip().split("\n")
                   if l.startswith("#")][0]
        err = float(summary.split("err=")[1].split()[0])
        assert abs(err - 6.0) / 6.0 < 0.15

    def test_last_running_err_is_err(self, tmp_path):
        out = tmp_path / "orbit.csv"
        assert run_cli(["orbit-count", "--tmax", "6", "--grid-nodes", "80",
                        "--out", str(out)]) == 0
        last, err = last_row_and_err(out.read_text())
        assert float(err) > 0 and last == err

    def test_truncation_refused(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(fuchsian, "ORBIT_MAX_POINTS", 1000)
        out = tmp_path / "orbit.csv"
        assert run_cli(["orbit-count", "--tmax", "8", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("lyaplab: refused: orbit ball exceeds 1000")
        assert not out.exists()

    # sha256 of the CSV, recorded while every ball certified its own
    # Dirichlet domain: orbit-calib's four command lines and an off-centre
    # t = 12 ball
    @pytest.mark.parametrize("args, digest", [
        (["--group", "triangle:3,3,4", "--tmax", "8"],
         "de0bd692380a61605a0132712ca8123475509be3f68c98fd4998f1ed9c8e0bba"),
        (["--group", "triangle:3,3,4", "--tmax", "8", "--center=0.1,1.2"],
         "454766fc624bf6fd0d33286c63cbda05a3bfb5c4dae171b49a55021fe0874aaa"),
        (["--group", "triangle:3,3,4", "--tmax", "8", "--center=0.3,1.5"],
         "402fa85f9761acb9ef246fe28b51599b4fc516c87ba654b660603ab087f404be"),
        (["--group", "triangle:3,3,4", "--tmax", "8", "--center=0.2,2.0"],
         "214dd5c990dc0f54e83d23b4b25c9691a974c18fa25838db8b4901b171a0bd9a"),
        (["--center=0.3,1.5", "--tmax", "12"],
         "be5049d35eb9b5acf0a38bcce9eca9096dadabc879f7b6dfb6b36f97d519fa25"),
    ], ids=["interior@8", "0.1,1.2@8", "0.3,1.5@8", "0.2,2.0@8", "0.3,1.5@12"])
    def test_pinned_count_csv(self, tmp_path, args, digest):
        out = tmp_path / "orbit.csv"
        assert run_cli(["orbit-count", *args, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_cone_point_center_refused(self, capsys):
        # (0, 1) is the order-3 vertex of triangle:3,3,4: its stabilizer
        # would count each orbit point three times
        assert run_cli(["orbit-count", "--tmax", "4", "--center", "0,1"]) == 2
        assert "cone point" in capsys.readouterr().err


class TestRepCommand:
    def test_round_trip_and_transform(self, tmp_path):
        out = tmp_path / "sym2.rep"
        assert run_cli(["rep", "--group", "triangle:3,3,4",
                        "--transform", "sym:2", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("n=3 field=real")
        out2 = tmp_path / "spec.csv"
        assert run_cli(["spectrum", "--rep", str(out), "--group",
                        "triangle:3,3,4", "--time", "100", "--samples", "4",
                        "--seed", "5", "--out", str(out2)]) == 0
        rows = out2.read_text().strip().split("\n")[1:]
        assert len(rows) == 3
        lam1 = float(rows[0].split(",")[2])
        assert abs(lam1 - 2.0) < 0.2


class TestSelftest:
    def test_passes(self, capsys):
        assert run_cli(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "all selftest suites passed" in out
        assert "FAIL" not in out

    def test_corruption_hook_fails_relation_suite(self, capsys, monkeypatch):
        _, gens, rels = fuchsian.build_group(fuchsian.GroupSpec.triangle(3, 3, 4))
        rep3 = linrep.uniformizing_rep(gens, rels, "fuchsian")
        g = np.array(rep3.generators[0])
        g[0, 0] += 1e-3
        corrupted = linrep.Representation(
            2, "real", [g, rep3.generators[1], rep3.generators[2]], rels,
            "corrupted", True)
        # the relation suite checks the unitary cube representation
        monkeypatch.setattr(linrep, "unitary_cube_rep", lambda: corrupted)
        assert run_cli(["selftest"]) == 1
        out = capsys.readouterr().out
        assert "relation-check" in [
            l.split()[1].rstrip(":") for l in out.splitlines() if l.startswith("FAIL")
        ][0]


# each config key with two values that give different outputs on a short run
CONFIG_CASES = [
    ("spectrum", "group", "surface:2", "triangle:3,3,4"),
    ("spectrum", "rep", "builtin:trivial", "builtin:fuchsian"),
    ("spectrum", "time", "55", "40"),
    ("spectrum", "samples", "5", "3"),
    ("spectrum", "seed", "7", "2"),
    ("spectrum", "qr-interval", "1", "32"),
    ("spectrum", "normalization", "minus1", "minus4"),
    ("spectrum", "random-base", "1", "0"),
    ("sweep", "axis", "real", "imag"),
    ("sweep", "grid", "0:1:3", "0,0.5"),
    ("err", "dev", "veronese:3", "identity"),
    ("err", "covector", "1 0 2", "1 0 1"),
    ("err", "center", "0.1,1.5", "0,2"),
    ("err", "tmax", "9", "8"),
    ("orbit-count", "grid-nodes", "70", "60"),
]
CONFIG_BASE = {
    "spectrum": ["--time", "40", "--samples", "3", "--seed", "2"],
    # a cap of 1 against one past the rule's q = 4 for Sym^2 on surface:2; a
    # rank-2 row prints the same digits at every q
    "qr-interval": ["--group", "surface:2", "--transform", "sym:2", "--time", "40",
                    "--samples", "3", "--seed", "2"],
    "sweep": ["--grid", "0,0.5", "--time", "40", "--samples", "3", "--seed", "2"],
    "err": ["--dev", "veronese:3", "--covector", "1 0 1", "--tmax", "8",
            "--grid-nodes", "60"],
    "orbit-count": ["--tmax", "5", "--grid-nodes", "60"],
}


class TestConfigFile:
    @staticmethod
    def outputs(args, capsys):
        code = run_cli(args)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("command,key,value,other", CONFIG_CASES)
    def test_key_equals_flag_and_flag_wins(self, tmp_path, capsys, command, key, value,
                                           other):
        base = list(CONFIG_BASE.get(key, CONFIG_BASE[command]))
        if f"--{key}" in base:
            i = base.index(f"--{key}")
            del base[i:i + 2]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# {key}\n{key} = {value}\n")
        flag = self.outputs([command, *base, f"--{key}={value}"], capsys)
        flag_other = self.outputs([command, *base, f"--{key}={other}"], capsys)
        assert flag[0] == 0 and flag != flag_other
        assert self.outputs([command, *base, "--config", str(cfg)], capsys) == flag
        assert self.outputs([command, *base, "--config", str(cfg), f"--{key}={other}"],
                            capsys) == flag_other

    def test_other_subcommands_keys_ignored(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("time=40\nsamples=3\nseed=2\naxis=real\ngrid=0,1\n")
        args = ["spectrum", "--time", "40", "--samples", "3", "--seed", "2"]
        assert (self.outputs(["spectrum", "--config", str(cfg)], capsys)
                == self.outputs(args, capsys))

    def test_config_defaults_end_with_their_call(self, tmp_path, capsys):
        # one process: a config call between two plain calls of one command
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid-nodes = 70\n")
        args = ["orbit-count", "--tmax", "5"]
        plain = self.outputs(args, capsys)
        assert self.outputs([*args, "--config", str(cfg)], capsys) != plain
        assert self.outputs(args, capsys) == plain

    def test_unknown_key_refused(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("qr_interval=4\ntime=40\nsamples=3\n")
        assert run_cli(["spectrum", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("lyaplab: refused: unknown config key 'qr_interval'")


class TestCommandLineRefusals:
    @pytest.mark.parametrize("args,why", [
        (["spectrum", "--samples", "1", "--time", "20"], "successful samples"),
        (["orbit-count", "--tmax", "4", "--center=0,1e-200"], "boundary"),
        (["orbit-count", "--tmax", "4", "--center=1e200,1"], "infinite distance"),
        # the sides of the 512-gon miss their Dirichlet bisectors by 2.19e-9,
        # past the build's absolute 1e-9 gate
        (["spectrum", "--group", "surface:128"], "miss their Dirichlet bisectors"),
        # a generator image of log cond 38.9, past any QR interval's budget
        (["spectrum", "--group", "surface:2", "--transform", "bend:16,0"], "unresolved"),
    ])
    def test_exit_2_with_one_refusal_line(self, capsys, args, why):
        assert run_cli(args) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("lyaplab: refused: ")
        assert why in err[0]

    def test_float_singular_image_is_invalid_input(self, capsys):
        # sym:3 of a twist has images conditioned past 1/eps, which
        # numpy's inverse finds exactly singular
        assert run_cli(["spectrum", "--group", "surface:4", "--transform", "bend:2,0",
                        "--transform", "sym:3"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["lyaplab: invalid input: generator 8 of "
                       "fuchsian|bend:2,0|sym:3 is singular in float64"]

    @pytest.mark.parametrize("args", [
        ["rep", "--time", "5"],
        ["err", "--group", "surface:2", "--covector", "1 0"],
        ["selftest", "--inject-corruption"],
    ])
    def test_removed_options_exit_2(self, args):
        with pytest.raises(SystemExit) as exc:
            run_cli(args)
        assert exc.value.code == 2
