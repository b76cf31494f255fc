import math

import numpy as np
import pytest

from lyaplab import cli, fuchsian, linrep


def run_cli(args):
    return cli.main(args)


def write_rep(path, generators, relations):
    linrep.save_rep(linrep.Representation(2, "real", generators, relations, "t",
                                          projective_flag=True), path)
    return str(path)


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

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowed_relation_refused(self, tmp_path):
        big = np.diag([1e200, 1e-200])
        rep = write_rep(tmp_path / "big.rep", [big, np.eye(2), np.eye(2)], [(1, 1)])
        assert run_cli(["rep", "--group", "triangle:3,3,4", "--rep", rep,
                        "--check", "--out", str(tmp_path / "x.rep")]) == 2
        assert run_cli(["spectrum", "--group", "triangle:3,3,4", "--rep", rep,
                        "--time", "50", "--samples", "2", "--seed", "1",
                        "--out", str(tmp_path / "x.csv")]) == 2


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
        # backward-stability residual instead of refusing
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--group", "surface:2", "--axis", "real",
                        "--grid", "4,16", "--time", "60", "--samples", "4",
                        "--seed", "4", "--out", str(out)]) == 0
        rows = [r.split(",") for r in out.read_text().strip().split("\n")[1:]]
        assert all(r[3] == "ok" for r in rows)
        assert float(rows[1][1]) > float(rows[0][1]) > 1.0

    def test_each_geodesic_traced_once(self, tmp_path, monkeypatch):
        from lyaplab import oseledets

        real, traced = oseledets.iter_crossings, []

        def counting(dom, ut, T, **kw):
            traced.append(ut)
            return real(dom, ut, T, **kw)

        monkeypatch.setattr(oseledets, "iter_crossings", counting)
        assert run_cli(["sweep", "--group", "surface:2", "--axis", "imag",
                        "--grid", "0:1:3", "--time", "60", "--samples", "4",
                        "--seed", "4", "--out", str(tmp_path / "s.csv")]) == 0
        assert len(traced) == 4


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

    def test_ode_kind_refused_from_cli(self):
        assert run_cli(["err", "--dev", "ode", "--covector", "1 0"]) == 2


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

    def test_corruption_hook_fails_relation_suite(self, capsys):
        assert run_cli(["selftest", "--inject-corruption"]) == 1
        out = capsys.readouterr().out
        assert "relation-check" in [
            l.split()[1].rstrip(":") for l in out.splitlines() if l.startswith("FAIL")
        ][0]
