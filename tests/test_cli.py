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

    @pytest.mark.parametrize("text,why", [
        ("n=0 field=real projective=0 label=x\n1.0\n",
         "bad header line: 'n=0 field=real projective=0 label=x'"),
        ("n=1 field=complex projective=0 label=x\n1.0\ninf\n1.0\n",
         "non-finite generator entries"),
        ("n=1 field=complex projective=0 label=x\n1.0\n1-infi\n1.0\n",
         "non-finite generator entries"),
    ], ids=["zero-rank", "inf", "imaginary-inf"])
    def test_bad_file_is_one_invalid_input_line(self, tmp_path, capsys, text, why):
        path = tmp_path / "bad.rep"
        path.write_text(text)
        assert run_cli(["spectrum", "--rep", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"lyaplab: invalid input: {why}"]

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

    def test_file_relations_are_the_groups(self, tmp_path, capsys):
        # a1, b1, a1, b1 of surface:2 represent no surface group, whatever
        # relations (here none) the file lists
        _, gens, _ = fuchsian.build_group(fuchsian.GroupSpec.surface(2))
        a1, b1 = (np.array(g.mat) for g in gens[:2])
        rep = write_rep(tmp_path / "pair.rep", [a1, b1, a1, b1], [])
        out = tmp_path / "never.csv"
        assert run_cli(["spectrum", "--group", "surface:2", "--rep", rep, "--time", "50",
                        "--samples", "4", "--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("lyaplab: refused: relation check failed: residual ")
        assert not out.exists()

    def test_unitary_cube_file_refused_like_the_builtin(self, tmp_path, capsys):
        # the cube's images satisfy a^3, b^3, c^4, abc but not a^2 of (2,3,7)
        path = tmp_path / "cube.rep"
        assert run_cli(["rep", "--rep", "builtin:unitary-cube", "--out", str(path)]) == 0
        capsys.readouterr()
        lines = []
        for source in ("builtin:unitary-cube", str(path)):
            assert run_cli(["spectrum", "--group", "triangle:2,3,7", "--rep", source,
                            "--time", "50", "--samples", "4",
                            "--out", str(tmp_path / "never.csv")]) == 2
            lines += capsys.readouterr().err.splitlines()
        assert lines[0] == lines[1]
        assert lines[0].startswith("lyaplab: refused: relation check failed: residual 2.000e+00")
        assert not (tmp_path / "never.csv").exists()

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

    @pytest.mark.parametrize("args", [
        ["sweep", "--transform", "sym:2"],
        ["sweep", "--group", "triangle:3,3,4", "--transform", "sym:2"],
        ["spectrum", "--group", "surface:2", "--transform", "sym:2", "--transform", "bend:1,0"],
    ])
    def test_bending_needs_rank_2(self, capsys, args):
        assert run_cli(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "lyaplab: refused: bending needs a rank-2 representation"]


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

    # bytes and exit codes recorded before the grid was bent in one call, and
    # again when the tracer came to carry vertex signs (the codings moved, the
    # statuses held); the real grid has ok, unresolved, relation-gate and
    # validation rows
    @pytest.mark.parametrize("axis,grid,csv", [
        ("real", "-16,-8,-1,0,0.5,2,8,16,60,400",
         "parameter,lambda1,stderr,status\n"
         "-16,nan,nan,failed:unresolved\n"
         "-8,nan,nan,failed:unresolved\n"
         "-1,1.05027175192,0.0454117041663,ok\n"
         "0,1.00162094865,0.00108403582706,ok\n"
         "0.5,1.07940295231,0.0196733020551,ok\n"
         "2,1.55231410274,0.0512417588263,ok\n"
         "8,nan,nan,failed:unresolved\n"
         "16,nan,nan,failed:unresolved\n"
         "60,nan,nan,failed:DegenerateBendingError\n"
         "400,nan,nan,failed:RepresentationError\n"),
        ("imag", "0:3:7",
         "parameter,lambda1,stderr,status\n"
         "0,1.00162094865,0.00108403582706,ok\n"
         "0.5,0.962316982107,0.00351792537762,ok\n"
         "1,0.822092193027,0.0272694934342,ok\n"
         "1.5,0.655729420944,0.028746461533,ok\n"
         "2,0.75162957793,0.044982861294,ok\n"
         "2.5,0.935540709034,0.00693962368708,ok\n"
         "3,0.998559402169,0.000791058451019,ok\n"),
    ], ids=["real", "imag"])
    def test_pinned_sweep_csv(self, tmp_path, axis, grid, csv):
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--group", "surface:2", "--axis", axis, f"--grid={grid}",
                        "--time", "60", "--samples", "4", "--out", str(out)]) == 0
        assert out.read_bytes() == csv.encode()

    # sha256 of the CSV of sweep-bend's four command lines, recorded while
    # complex rank-2 product trees multiplied complex 2 x 2 stacks, and again
    # when the tracer came to carry vertex signs: the codings moved, every
    # status stayed ok, and over 64 samples (seed 901, tau = 0, 0.4, .., 2)
    # the two walks' lambda1 agree within 0.9 combined stderr
    @pytest.mark.parametrize("seed, digest", [
        (900, "9cf1810726bce8cdd4c9980b0c9028076977f49da98d5b0f8b90abe0175d1493"),
        (901, "960d7589f7c7880b6a9fb487ccce866db761c01f9e3c2640c978ef303f80b9b1"),
        (902, "c645244abd14109a545a985f4e206af6a1eff8b776c0e86d7ccf2f6083a61e71"),
        (903, "dd4df541b8c08b4a7ee94c45964e5a560a8adef9b042a9e92a2831bac2679960"),
    ])
    def test_pinned_bench_sweep_csv(self, tmp_path, seed, digest):
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--group", "surface:2", "--axis", "imag", "--grid", "0:2:11",
                        "--time", "500", "--samples", "4", "--seed", str(seed),
                        "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_points_without_crossings_after_burn_in_fail(self, tmp_path):
        # at T = 1 no geodesic crosses a side after its burn-in of 0.1: a rate
        # over no span is no sample, so no point is left with 2 samples
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--time", "1", "--samples", "4", "--grid", "0,0.5",
                        "--out", str(out)]) == 0
        assert out.read_text() == ("parameter,lambda1,stderr,status\n"
                                   "0,nan,nan,failed:InsufficientDataError\n"
                                   "0.5,nan,nan,failed:InsufficientDataError\n")

    def test_all_refused_grid_prints_failed_rows(self, tmp_path, monkeypatch):
        # no point is left to run, so nothing is traced
        traced = []
        monkeypatch.setattr(oseledets, "trace_geodesic", lambda *a: traced.append(a))
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--group", "surface:2", "--axis", "real", "--grid", "60,400",
                        "--time", "50", "--samples", "3", "--out", str(out)]) == 0
        assert out.read_text() == ("parameter,lambda1,stderr,status\n"
                                   "60,nan,nan,failed:DegenerateBendingError\n"
                                   "400,nan,nan,failed:RepresentationError\n")
        assert traced == []

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
        code = run_cli(["err", "--dev", "veronese:2", "--covector", "1 -0.5+2i",
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

    # (dev, covector with a repeated or extreme pairing, a covector with the
    # same zeros in H): (z+1)^2, (z+1)^4, (z+1)^11 and (z+1)^4 at 1e308 have
    # none, (z-i)^3 and a subnormal z^2+1 have one, at i
    @pytest.mark.parametrize("dev,covector,same", [
        ("veronese:3", "1 1 1", "veronese:2 1 1"),
        ("veronese:5", "1 1 1 1 1", "veronese:2 1 1"),
        ("veronese:12", " ".join(["1"] * 12), "veronese:2 1 1"),
        ("veronese:5", "1e308 1e308 1e308 1e308 1e308", "veronese:2 1 1"),
        ("veronese:4", "1 -1i -1 1i", "veronese:3 1 0 1"),
        ("veronese:3", "1e-320 0 1e-320", "veronese:3 1 0 1"),
    ], ids=["double", "fourfold", "elevenfold", "overflow", "triple-at-i", "subnormal"])
    def test_repeated_or_extreme_zeros_counted_once(self, tmp_path, dev, covector, same):
        ref_dev, _, ref_covector = same.partition(" ")
        for name, d, u in (("a", dev, covector), ("b", ref_dev, ref_covector)):
            assert run_cli(["err", "--dev", d, "--covector", u,
                            "--out", str(tmp_path / f"{name}.csv")]) == 0
        assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()

    def test_close_distinct_zeros_stay_two(self, tmp_path):
        # (z - i)(z - i - 0.005)
        out = tmp_path / "err.csv"
        assert run_cli(["err", "--dev", "veronese:3", "--covector", "1 -0.0025-1i -1+0.005i",
                        "--out", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        assert int(rows[-1].split(",")[1]) == 2

    def test_missing_covector_refused(self):
        assert run_cli(["err", "--dev", "veronese:2"]) == 2

    def test_ode_kind_refused_from_cli(self, capsys):
        assert run_cli(["err", "--dev", "ode", "--covector", "1 0"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("lyaplab: refused: ")
        assert err[0].endswith("(use veronese:n)")


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

    def test_file_written_with_the_group_relations(self, tmp_path):
        _, gens, rels = fuchsian.build_group(fuchsian.GroupSpec.triangle(3, 3, 4))
        bare = write_rep(tmp_path / "bare.rep", [np.array(g.mat) for g in gens], [])
        out = tmp_path / "out.rep"
        assert run_cli(["rep", "--rep", bare, "--out", str(out)]) == 0
        assert linrep.load_rep(out).relations == tuple(tuple(w) for w in rels)

    @pytest.mark.parametrize("group", ["triangle:3,3,4", "surface:2"])
    def test_fuchsian_file_spectrum_is_the_builtin_spectrum(self, tmp_path, group):
        path = tmp_path / "fuchsian.rep"
        assert run_cli(["rep", "--group", group, "--out", str(path)]) == 0
        outs = []
        for source in ("builtin:fuchsian", str(path)):
            out = tmp_path / f"{len(outs)}.csv"
            assert run_cli(["spectrum", "--group", group, "--rep", source, "--time", "100",
                            "--samples", "4", "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @staticmethod
    def certificate(args, capsys):
        """The last clause of the stderr line of a rep run."""
        assert run_cli(["rep", *args]) == 0
        (line,) = capsys.readouterr().err.splitlines()
        return line.rsplit("; ", 1)[1]

    def test_unitary_cube_certified_unitary(self, capsys):
        assert self.certificate(["--rep", "builtin:unitary-cube"], capsys) == \
            "unitary generators: yes"

    def test_trivial_file_certified_unitary(self, tmp_path, capsys):
        path = tmp_path / "trivial3.rep"
        save_rep(linrep.trivial_rep(3, 3), path)
        assert self.certificate(["--rep", str(path)], capsys) == "unitary generators: yes"

    def test_fuchsian_not_unitary(self, capsys):
        assert self.certificate([], capsys) == "unitary generators: no"


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
    ("err", "dev", "veronese:3", "veronese:2"),
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

    @pytest.mark.parametrize("command,key,value", [
        ("sweep", "axis", "diag"),
        ("spectrum", "normalization", "minus2"),
        ("spectrum", "samples", "3.5"),
        ("spectrum", "random-base", "5"),
    ])
    def test_bad_value_is_a_usage_error(self, tmp_path, capsys, command, key, value):
        # a file's values pass the converters and choices of the flags
        cfg, out = tmp_path / "run.cfg", tmp_path / "never.csv"
        cfg.write_text(f"time=40\nsamples=3\n{key} = {value}\n")
        with pytest.raises(SystemExit) as exc:
            run_cli([command, "--config", str(cfg), "--out", str(out)])
        assert exc.value.code == 2 and not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"lyaplab: usage error: {cfg}: {key}: invalid value "
                                       f"{value!r}")
        assert len(captured.err.splitlines()) == 1


class TestFreshInterpreter:
    def test_runs_leave_numpy_random_unimported(self):
        # sample directions come from oseledets' own copy of numpy's stream,
        # and the command line is parsed without argparse; pytest itself loads
        # numpy.random and argparse, so this needs a fresh interpreter
        src = str(Path(lyaplab.__file__).resolve().parents[1])
        script = (
            "import contextlib, io, sys\n"
            "from lyaplab import cli\n"
            "for args in [['spectrum', '--time', '30', '--samples', '3'],\n"
            "             ['spectrum', '--time', '30', '--samples', '3', '--random-base', '1'],\n"
            "             ['sweep', '--time', '30', '--samples', '2', '--grid', '0,0.5'],\n"
            "             ['orbit-count', '--tmax', '4', '--grid-nodes', '60'],\n"
            "             ['err', '--covector', '1 0', '--tmax', '5'],\n"
            "             ['rep', '--transform', 'sym:2']]:\n"
            "    with contextlib.redirect_stdout(io.StringIO()), \\\n"
            "            contextlib.redirect_stderr(io.StringIO()):\n"
            "        assert cli.main(args) == 0, args\n"
            "print(sorted(m for m in ('numpy.random', 'fractions', 'argparse', 'gettext',\n"
            "                         'locale') if m in sys.modules))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    @pytest.mark.parametrize("dev,covector,span", [
        ("veronese:3", "1e-320 1 1", 320),                # a subnormal leading coefficient
        ("veronese:4", "1e-158 1e-6i 1e-82i 1e42", 200),  # np.roots misses a zero in H
    ], ids=["subnormal-leading", "wide"])
    def test_wide_pairing_is_one_invalid_input_line(self, dev, covector, span):
        # refused before np.roots, whose companion division overflowed with
        # two RuntimeWarnings; a fresh interpreter prints what pytest's
        # warning filter would turn into an error
        src = str(Path(lyaplab.__file__).resolve().parents[1])
        script = ("import sys\nfrom lyaplab import cli\n"
                  f"sys.exit(cli.main(['err', '--dev', '{dev}', '--covector', '{covector}']))\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.splitlines() == [
            f"lyaplab: invalid input: the pairing's coefficients span {span} decades, "
            "more than the 10 over which np.roots resolves its zeros"]


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
        # no geodesic crosses a side after the burn-in (0.1), so no sample has a rate
        (["spectrum", "--group", "surface:2", "--time", "1", "--samples", "8"],
         "only 0 successful samples; failures: [(0, \"InsufficientDataError('no side "
         "crossing after the burn-in t = 0.1')\")"),
        (["spectrum", "--time", "1e-300", "--samples", "2"], "no side crossing"),
        (["err", "--dev", "identity", "--covector", "1 0"],
         "dev kind 'identity' unsupported (use veronese:n)"),
    ])
    def test_exit_2_with_one_refusal_line(self, capsys, args, why):
        assert run_cli(args) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("lyaplab: refused: ")
        assert why in err[0]

    @pytest.mark.parametrize("args,why", [
        (["err", "--covector", "1 0", "--tmax", "nan"], "t grid must be nonempty and finite"),
        (["err", "--covector", "1 0", "--tmax", "inf"], "t grid must be nonempty and finite"),
        (["err", "--covector", "1 0", "--tmax", "-1"],
         "t grid must be strictly increasing and positive"),
        (["spectrum", "--time", "nan"], "T must be positive and finite"),
        (["spectrum", "--time", "inf"], "T must be positive and finite"),
        (["sweep", "--time", "inf"], "T must be positive and finite"),
        (["err", "--covector", "nan 1"], "covector must be finite"),
        (["err", "--covector", "1e400 1"], "covector must be finite"),
        (["err", "--covector", "1 -1e400i"], "covector must be finite"),
        (["err", "--covector", "nan 0"], "covector must be finite"),
    ])
    def test_empty_or_non_finite_input_is_one_invalid_input_line(self, capsys, args, why):
        # refused before any output; RuntimeWarnings are errors under pytest,
        # so an inf that reached numpy arithmetic would fail here
        assert run_cli(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"lyaplab: invalid input: {why}"]

    @pytest.mark.parametrize("args,why", [
        (["spectrum", "--seed", "-1", "--time", "20", "--samples", "2"],
         "expected non-negative integer"),
        (["sweep", "--seed", "-1", "--time", "20", "--samples", "2", "--grid", "0,1"],
         "expected non-negative integer"),
        (["err", "--covector", "1 0", "--tmax", "5", "--grid-nodes", "0"],
         "grid nodes must be >= 1"),
        (["err", "--covector", "1 0", "--tmax", "5", "--grid-nodes", "-5"],
         "grid nodes must be >= 1"),
        (["orbit-count", "--tmax", "3", "--grid-nodes", "0"], "grid nodes must be >= 1"),
        (["orbit-count", "--tmax", "3", "--grid-nodes", "-5"], "grid nodes must be >= 1"),
    ])
    def test_negative_seed_or_too_few_nodes_is_one_invalid_input_line(self, capsys, args, why):
        assert run_cli(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"lyaplab: invalid input: {why}"]

    @pytest.mark.parametrize("args,why", [
        (["orbit-count", "--center", "1"], "--center expects x,y, got '1'"),
        (["orbit-count", "--center", "1,2,3"], "--center expects x,y, got '1,2,3'"),
        (["orbit-count", "--center", "1,y"], "--center expects x,y, got '1,y'"),
        (["err", "--covector", "1 0", "--center", "1"], "--center expects x,y, got '1'"),
        (["spectrum", "--group", "surface:2", "--transform", "bend:1"],
         "--transform bend expects re,im, got '1'"),
        (["sweep", "--transform", "bend:1,2,3"], "--transform bend expects re,im, got '1,2,3'"),
    ])
    def test_malformed_pair_names_its_form(self, capsys, args, why):
        assert run_cli(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"lyaplab: invalid input: {why}"]

    @pytest.mark.parametrize("args,why", [
        (["spectrum", "--transform", "sym:x"], "--transform sym expects sym:k, got 'sym:x'"),
        (["spectrum", "--transform", "sym:"], "--transform sym expects sym:k, got 'sym:'"),
        (["spectrum", "--transform", "ext:2.5"], "--transform ext expects ext:k, got 'ext:2.5'"),
        (["rep", "--transform", "ext:"], "--transform ext expects ext:k, got 'ext:'"),
        *((["sweep", "--grid", grid],
           f"--grid expects start:stop:npoints or a comma list, got '{grid}'")
          for grid in ("0:1", "0:1:x", "0:1:-3", "a,b", "0:1:2:3")),
    ])
    def test_malformed_transform_or_grid_names_its_form(self, capsys, args, why):
        assert run_cli(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"lyaplab: invalid input: {why}"]

    @pytest.mark.parametrize("grid", ["0:1", "0:1:-3", "a,b"])
    def test_malformed_grid_in_config_names_its_form(self, tmp_path, capsys, grid):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"grid = {grid}\n")
        assert run_cli(["sweep", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"lyaplab: invalid input: --grid expects start:stop:npoints or a comma list, "
            f"got '{grid}'"]

    def test_malformed_center_in_config_names_its_form(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("center=1\n")
        assert run_cli(["orbit-count", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "lyaplab: invalid input: --center expects x,y, got '1'"]

    @pytest.mark.parametrize("key,value,why", [
        ("dev", "veronese:x", "--dev expects veronese:n, got 'veronese:x'"),
        ("dev", "veronese:", "--dev expects veronese:n, got 'veronese:'"),
        ("dev", "veronese:2.5", "--dev expects veronese:n, got 'veronese:2.5'"),
        ("dev", "veronese", "--dev expects veronese:n, got 'veronese'"),
        ("covector", "1 x", "--covector expects numbers as in '1 -0.5+2i', got '1 x'"),
        ("covector", "1 2+i3", "--covector expects numbers as in '1 -0.5+2i', got '1 2+i3'"),
    ])
    @pytest.mark.parametrize("where", ["argv", "config"])
    def test_malformed_err_value_names_its_form(self, tmp_path, capsys, key, value, why, where):
        values = {"covector": "1 0", key: value}
        args = ["err", *(f"--{k}={v}" for k, v in values.items())]
        if where == "config":
            cfg = tmp_path / "c.cfg"
            cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
            args = ["err", "--config", str(cfg)]
        assert run_cli(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"lyaplab: invalid input: {why}"]

    def test_float_singular_image_is_invalid_input(self, capsys):
        # sym:3 of a twist has images conditioned past 1/eps, which
        # numpy's inverse finds exactly singular
        assert run_cli(["spectrum", "--group", "surface:4", "--transform", "bend:2,0",
                        "--transform", "sym:3"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["lyaplab: invalid input: generator 8 of "
                       "fuchsian|bend:2,0|sym:3 is singular in float64"]

    @pytest.mark.parametrize("args,why", [
        ([], "expected a command (spectrum, sweep, err, orbit-count, rep, selftest), got none"),
        (["spectra"], "expected a command (spectrum, sweep, err, orbit-count, rep, selftest), "
                      "got spectra"),
        (["spectrum", "--bogus", "1"], "spectrum has no option '--bogus'"),
        (["spectrum", "--samp", "3"], "spectrum has no option '--samp'"),  # no prefixes
        (["spectrum", "samples", "3"], "spectrum has no option 'samples'"),
        (["orbit-count", "--axis", "real"], "orbit-count has no option '--axis'"),
        (["rep", "--check=1"], "rep has no option '--check=1'"),
        (["spectrum", "--seed"], "spectrum --seed needs a value"),
        (["spectrum", "--out", "--svg", "p.svg"], "spectrum --out needs a value"),
        (["spectrum", "--samples", "3.5"], "spectrum --samples: invalid value '3.5' (expected int)"),
        (["err", "--tmax=x"], "err --tmax: invalid value 'x' (expected float)"),
        (["sweep", "--axis", "diag"], "sweep --axis: invalid value 'diag' (expected real | imag)"),
        (["spectrum", "--random-base", "5"],
         "spectrum --random-base: invalid value '5' (expected 0 | 1)"),
        (["spectrum", "--random-base", "-1"],
         "spectrum --random-base: invalid value '-1' (expected 0 | 1)"),
        (["sweep", "--random-base=2"], "sweep --random-base: invalid value '2' (expected 0 | 1)"),
    ])
    def test_usage_error_is_one_line(self, capsys, args, why):
        with pytest.raises(SystemExit) as exc:
            run_cli(args)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"lyaplab: usage error: {why}"]

    @pytest.mark.parametrize("args", [
        ["rep", "--time", "5"],
        ["err", "--group", "surface:2", "--covector", "1 0"],
        ["selftest", "--inject-corruption"],
    ])
    def test_removed_options_exit_2(self, args):
        with pytest.raises(SystemExit) as exc:
            run_cli(args)
        assert exc.value.code == 2


# every option of each command and the default its help names
HELP_DEFAULTS = {
    "spectrum": {
        "config": "none", "group": "triangle:3,3,4", "rep": "builtin:fuchsian",
        "transform": "none", "time": "2000.0", "samples": "64", "seed": "1",
        "qr-interval": "none", "normalization": "minus4", "random-base": "0", "out": "none",
        "svg": "none"},
    "sweep": {
        "config": "none", "group": "surface:2", "rep": "builtin:fuchsian", "transform": "none",
        "time": "2000.0", "samples": "64", "seed": "1", "qr-interval": "none",
        "normalization": "minus4", "random-base": "0", "axis": "imag", "grid": "0:2:11",
        "out": "none", "svg": "none"},
    "err": {
        "config": "none", "dev": "veronese:2", "covector": "none", "center": "0,2", "tmax": "20.0",
        "grid-nodes": "400", "out": "none", "svg": "none"},
    "orbit-count": {
        "config": "none", "group": "triangle:3,3,4", "center": "none", "tmax": "12.0",
        "grid-nodes": "240", "out": "none", "svg": "none"},
    "rep": {
        "config": "none", "group": "triangle:3,3,4", "rep": "builtin:fuchsian",
        "transform": "none", "out": "none", "check": "False"},
    "selftest": {},
}


class TestHelp:
    @staticmethod
    def help_text(args, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(args)
        assert exc.value.code == 0
        return capsys.readouterr().out

    def test_lists_the_commands(self, capsys):
        text = self.help_text(["--help"], capsys)
        assert [l.split()[0] for l in text.split("commands:\n")[1].splitlines()] == list(
            HELP_DEFAULTS)

    @pytest.mark.parametrize("command", list(HELP_DEFAULTS))
    def test_names_every_option_with_its_default(self, capsys, command):
        text = self.help_text([command, "-h"], capsys)
        rows = {l.split()[0]: l for l in text.splitlines() if l.startswith("  --")}
        assert sorted(rows) == sorted(f"--{key}" for key in HELP_DEFAULTS[command])
        for key, default in HELP_DEFAULTS[command].items():
            assert rows[f"--{key}"].endswith(f"(default: {default})"), rows[f"--{key}"]
