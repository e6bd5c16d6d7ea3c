import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from domainuq.cli import main
from domainuq.config import ExperimentConfig, config_hash, parse_config
from domainuq.errors import ConfigError
from domainuq.fem import load_field
from domainuq.fields import (load_scalar_field, load_vector_field,
                             save_scalar_field, save_vector_field)
from domainuq.lowrank import KLBasis
from domainuq.textio import hex_row
from domainuq.uq import QUADRATURE_BLOCK, SOLVE_BLOCK


class TestConfigParsing:
    def test_defaults(self):
        cfg = parse_config("")
        assert cfg == ExperimentConfig()

    def test_full_file(self):
        cfg = parse_config(
            "# comment\n"
            "mesh_level = 4\n"
            "eps_list = 0.125, 0.25, 0.5\n"
            "n_mc = 100  # trailing comment\n"
            "seed = 17\n")
        assert cfg.mesh_level == 4
        assert cfg.eps_list == (0.125, 0.25, 0.5)
        assert cfg.n_mc == 100
        assert cfg.seed == 17

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_config("mesh_width = 3\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError):
            parse_config("seed = 1\nseed = 2\n")

    @pytest.mark.parametrize("line", [
        "eps_list = 1, 0.5",          # not ascending
        "eps_list = 0.5, 0.5",        # repeated
        "eps_list = -1, 1",           # not positive
        "eps_list = 0.25, nan",       # not finite
        "eps_list = 0.25, inf",
        "n_mc = 1",
        "kl_tol_v = 0",
        "kl_tol_v = 1.5",
        "grid_cells = 8",
        "norm_mean = h2",
        "quad_level = -1",
    ])
    def test_invalid_values(self, line):
        with pytest.raises(ConfigError):
            parse_config(line + "\n")

    def test_hash_ignores_comments_and_order(self):
        a = parse_config("seed = 1\nmesh_level = 2\n")
        b = parse_config("# hi\nmesh_level = 2\nseed = 1\n")
        assert config_hash(a) == config_hash(b)
        c = parse_config("seed = 2\nmesh_level = 2\n")
        assert config_hash(a) != config_hash(c)


def write_config(path, text):
    path.write_text(text)
    return str(path)


TINY = (
    "mesh_level = 2\n"
    "grid_cells = 32\n"
    "eps_list = 0.5, 1\n"
    "n_mc = 32\n"
    "n_taylor = 2\n"
    "seed = 9\n"
    "quad_level = 1\n"
)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """One build-kl + solve-one run on a small config, shared by tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "tiny.cfg"
    cfg.write_text(TINY)
    out = root / "out"
    assert main(["build-kl", "--config", str(cfg), "--out", str(out)]) == 0
    return str(cfg), str(out)


def artifacts_copy(tiny_run, target):
    """(config path, a fresh output directory holding the KL artifacts)."""
    cfg, out = tiny_run
    os.makedirs(target)
    for name in ("vector_field.txt", "coefficient.txt", "kl_manifest.txt"):
        (target / name).write_bytes(
            open(os.path.join(out, name), "rb").read())
    return cfg, str(target)


class TestBuildKL:
    def test_manifest_and_artifacts(self, tiny_run):
        _, out = tiny_run
        manifest = open(os.path.join(out, "kl_manifest.txt")).read()
        assert "vector_modes=" in manifest
        assert "rng=philox4x64" in manifest
        vf = load_vector_field(os.path.join(out, "vector_field.txt"))
        sf = load_scalar_field(os.path.join(out, "coefficient.txt"))
        assert vf.level == 2
        assert sf.grid.cells == 32

    def test_rerun_is_byte_identical(self, tiny_run, tmp_path):
        cfg, out = tiny_run
        out2 = tmp_path / "out2"
        assert main(["build-kl", "--config", cfg, "--out", str(out2)]) == 0
        for name in ("vector_field.txt", "coefficient.txt", "kl_manifest.txt"):
            a = open(os.path.join(out, name), "rb").read()
            b = open(out2 / name, "rb").read()
            assert a == b

    def test_default_desk_config_mode_brackets(self, tmp_path):
        out = tmp_path / "desk"
        assert main(["build-kl", "--out", str(out)]) == 0
        manifest = (out / "kl_manifest.txt").read_text()
        values = dict(line.split("=", 1) for line in manifest.splitlines()
                      if "=" in line and not line.startswith("#"))
        assert 40 <= int(values["vector_modes"]) <= 70
        assert 8 <= int(values["coeff_modes"]) <= 14

    def test_looser_tolerance_fewer_modes(self, tmp_path):
        cfg1 = write_config(tmp_path / "a.cfg", TINY)
        cfg2 = write_config(tmp_path / "b.cfg",
                            TINY + "kl_tol_v = 0.5\nkl_tol_a = 0.5\n")
        assert main(["build-kl", "--config", cfg1,
                     "--out", str(tmp_path / "o1")]) == 0
        assert main(["build-kl", "--config", cfg2,
                     "--out", str(tmp_path / "o2")]) == 0
        tight = load_vector_field(tmp_path / "o1" / "vector_field.txt")
        loose = load_vector_field(tmp_path / "o2" / "vector_field.txt")
        assert loose.n_modes < tight.n_modes


class TestSolveOne:
    def test_zero_sample_matches_smooth(self, tiny_run):
        cfg, out = tiny_run
        assert main(["solve-one", "--config", cfg, "--out", out,
                     "--y", "0", "--z", "0", "--eps", "0"]) == 0
        ue = open(os.path.join(out, "u_eps.txt"), "rb").read()
        u0 = open(os.path.join(out, "u0.txt"), "rb").read()
        assert ue == u0
        delta = load_field(os.path.join(out, "delta_u.txt"))
        assert np.array_equal(delta.values, np.zeros(delta.n))

    def test_outputs_reloadable(self, tiny_run):
        cfg, out = tiny_run
        assert main(["solve-one", "--config", cfg, "--out", out,
                     "--y", "0", "--z", "0", "--eps", "0.5"]) == 0
        from domainuq.fem import field_to_text
        text = open(os.path.join(out, "u_eps.txt")).read()
        assert field_to_text(load_field(os.path.join(out, "u_eps.txt"))) == text
        from domainuq.mesh import load_mesh
        dmesh = load_mesh(os.path.join(out, "deformed_mesh.txt"))
        assert dmesh.level == 2

    def test_wrong_dimension_is_config_error(self, tiny_run):
        cfg, out = tiny_run
        code = main(["solve-one", "--config", cfg, "--out", out,
                     "--y", "0.1,0.2", "--z", "0", "--eps", "0.5"])
        assert code == 2

    @pytest.mark.parametrize("flag,first", [
        ("--y", "5"), ("--y", "nan"), ("--z", "inf"), ("--z", "1e999")])
    def test_bad_component_is_config_error(self, tiny_run, flag, first,
                                           capsys):
        cfg, out = tiny_run
        n_y = load_scalar_field(os.path.join(out, "coefficient.txt")).n_modes
        n_z = load_vector_field(os.path.join(out, "vector_field.txt")).n_modes
        n = n_y if flag == "--y" else n_z
        vectors = {"--y": "0", "--z": "0",
                   flag: ",".join([first] + ["0"] * (n - 1))}
        code = main(["solve-one", "--config", cfg, "--out", out,
                     "--y", vectors["--y"], "--z", vectors["--z"],
                     "--eps", "0.5"])
        assert code == 2
        assert "config error" in capsys.readouterr().err


    @pytest.mark.parametrize("eps", ["nan", "inf", "-inf"])
    def test_non_finite_eps_is_config_error(self, tiny_run, eps, capsys):
        cfg, out = tiny_run
        code = main(["solve-one", "--config", cfg, "--out", out,
                     "--y", "0", "--z", "0", f"--eps={eps}"])
        assert code == 2
        assert "--eps must be finite" in capsys.readouterr().err


class TestExitCodes:
    def test_zero_threads_creates_no_directory(self, tmp_path, capsys):
        out = tmp_path / "tt0"
        assert main(["mc", "--threads", "0", "--out", str(out)]) == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_artifacts(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", TINY)
        assert main(["convergence", "--config", cfg,
                     "--out", str(tmp_path / "empty")]) == 2

    def test_bad_config_file(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", "nonsense = 1\n")
        assert main(["mc", "--config", cfg]) == 2

    def test_numerical_failure(self, tiny_run, tmp_path):
        cfg_text = TINY.replace("eps_list = 0.5, 1", "eps_list = 0.5, 50")
        cfg = write_config(tmp_path / "big.cfg", cfg_text)
        _, out = tiny_run
        assert main(["taylor", "--config", cfg, "--out", out]) == 3

    def test_mc_stats_name_clash(self, tiny_run, tmp_path, capsys):
        _, out = artifacts_copy(tiny_run, tmp_path / "clash")
        cfg = write_config(tmp_path / "clash.cfg", TINY.replace(
            "eps_list = 0.5, 1", "eps_list = 0.25, 0.2500001"))
        assert main(["mc", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "0.25 and 0.2500001" in err
        assert "mc_stats_eps0.25.txt" in err
        assert not any(name.startswith("mc") for name in os.listdir(out))

    def test_dead_worker_is_a_worker_failure(self, tiny_run, tmp_path,
                                             capsys, monkeypatch):
        from domainuq import cli, uq
        cfg, out = artifacts_copy(tiny_run, tmp_path / "dead")
        parent = os.getpid()

        def dying(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(1)
            raise AssertionError("solved in the calling process")

        monkeypatch.setattr(uq, "_cpu_count", lambda: 2)  # one-CPU hosts
        monkeypatch.setattr(cli, "solve_block", dying)
        assert main(["mc", "--config", cfg, "--out", out,
                     "--threads", "2"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("worker failure: samples 0 to 3 and later")


    def test_artifacts_of_another_grid(self, tiny_run, tmp_path, capsys):
        _, out = artifacts_copy(tiny_run, tmp_path / "a")
        cfg = write_config(tmp_path / "g64.cfg",
                           TINY.replace("grid_cells = 32", "grid_cells = 64"))
        assert main(["mc", "--config", cfg, "--out", out]) == 2
        assert "grid_cells 32" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "mc.csv"))

    def test_missing_manifest(self, tiny_run, tmp_path, capsys):
        cfg, out = artifacts_copy(tiny_run, tmp_path / "a")
        os.remove(os.path.join(out, "kl_manifest.txt"))
        assert main(["mc", "--config", cfg, "--out", out]) == 2
        assert "kl_manifest.txt" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "mc.csv"))

    @pytest.mark.parametrize("key", ["kl_tol_v", "kl_tol_a"])
    def test_artifacts_of_other_kl_tolerances(self, tiny_run, tmp_path,
                                              capsys, key):
        _, out = artifacts_copy(tiny_run, tmp_path / "a")
        cfg = write_config(tmp_path / "tol.cfg", TINY + f"{key} = 0.3\n")
        for command in ("mc", "convergence"):
            assert main([command, "--config", cfg, "--out", out]) == 2
            assert f"{key}=0.01" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "mc.csv"))

    def test_manifest_without_tolerances(self, tiny_run, tmp_path, capsys):
        cfg, out = artifacts_copy(tiny_run, tmp_path / "a")
        path = os.path.join(out, "kl_manifest.txt")
        lines = open(path).read().splitlines()
        with open(path, "w") as f:
            f.write("\n".join(l for l in lines
                              if not l.startswith("kl_tol_")) + "\n")
        assert main(["mc", "--config", cfg, "--out", out]) == 2
        assert "not recorded" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["vector_field.txt", "coefficient.txt"])
    def test_truncated_artifact(self, tiny_run, tmp_path, capsys, name):
        cfg, out = artifacts_copy(tiny_run, tmp_path / "a")
        path = os.path.join(out, name)
        text = open(path).read()
        with open(path, "w") as f:
            f.write(text[:len(text) // 2])
        assert main(["mc", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and name in err

    @pytest.mark.parametrize("name", ["vector_field.txt", "coefficient.txt"])
    def test_non_finite_artifact(self, tiny_run, tmp_path, capsys, name):
        cfg, out = artifacts_copy(tiny_run, tmp_path / "a")
        path = os.path.join(out, name)
        lines = open(path).read().split("\n")
        row = 2 + next(i for i, line in enumerate(lines)
                       if line.startswith("klbasis"))  # the first mode
        for bad in (np.nan, np.inf):
            lines[row] = hex_row([bad]) + lines[row][16:]
            with open(path, "w") as f:
                f.write("\n".join(lines))
            assert main(["mc", "--config", cfg, "--out", out]) == 2
            err = capsys.readouterr().err
            assert "config error" in err and name in err and "non-finite" in err
            assert not os.path.exists(os.path.join(out, "mc.csv"))

    @pytest.mark.parametrize("name", ["vector_field.txt", "coefficient.txt"])
    @pytest.mark.parametrize("damage", ["decimal", "row_one_value_short",
                                        "non_hex_digit", "half_the_lines"])
    def test_damaged_artifact(self, tiny_run, tmp_path, capsys, damage, name):
        cfg, out = artifacts_copy(tiny_run, tmp_path / "a")
        path = os.path.join(out, name)
        if damage == "decimal":
            text = decimal_artifact(path)
        else:
            lines = open(path).read().splitlines()
            row = 4  # the first mode
            if damage == "row_one_value_short":
                lines[row] = lines[row][:-16]
            elif damage == "non_hex_digit":
                lines[row] = lines[row][:5] + "x" + lines[row][6:]
            else:
                lines = lines[:len(lines) // 2]
            text = "\n".join(lines) + "\n"
        with open(path, "w") as f:
            f.write(text)
        assert main(["mc", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and name in err and "build-kl" in err
        assert not os.path.exists(os.path.join(out, "mc.csv"))

    @pytest.mark.parametrize("case", [
        "coefficient_modes_of_189_values", "coefficient_short_of_last_vertex",
        "vector_modes_two_values_short", "vector_field_one_node_short"])
    def test_basis_length_mismatch(self, tiny_run, tmp_path, capsys, case):
        """A basis whose length disagrees with its grid, its node count or
        the mesh is refused by name, even when the file is consistent."""
        cfg, out = artifacts_copy(tiny_run, tmp_path / "a")
        name = ("coefficient.txt" if case.startswith("coefficient")
                else "vector_field.txt")
        path = os.path.join(out, name)
        if name == "coefficient.txt":
            sf = load_scalar_field(path)
            width = 189 if "189" in case else sf.basis.n - 1
            save_scalar_field(replace(sf, basis=KLBasis(
                sf.basis.mu, sf.basis.modes[:, :width])), path)
        else:
            vf = load_vector_field(path)
            n = vf.n_nodes
            if case == "vector_modes_two_values_short":
                vf = replace(vf, basis=KLBasis(vf.basis.mu,
                                               vf.basis.modes[:, :-2]))
            else:
                vf = replace(vf, mean=vf.mean[:-1], basis=KLBasis(
                    vf.basis.mu,
                    np.delete(vf.basis.modes, [n - 1, 2 * n - 1], axis=1)))
            save_vector_field(vf, path)
        assert main(["mc", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and name in err and "build-kl" in err
        assert not os.path.exists(os.path.join(out, "mc.csv"))


def decimal_artifact(path) -> str:
    """The text an older build wrote for the artifact at `path`: the same
    header without the encoding token, the mean one node or vertex per
    line, and each eigenvalue followed by its mode, in decimal."""
    def row(values):
        return " ".join(format(float(x), ".17g") for x in values)

    if path.endswith("vector_field.txt"):
        kl = load_vector_field(path)
        lines = [f"vectorfield level {kl.level} nodes {kl.n_nodes}"]
    else:
        kl = load_scalar_field(path)
        lines = [f"scalarfield cells {kl.grid.cells}"]
    lines += [row(np.atleast_1d(x)) for x in kl.mean]
    lines.append(f"klbasis {kl.basis.n_modes} {kl.basis.n}")
    for mu, vec in zip(kl.basis.mu, kl.basis.modes):
        lines += [row([mu]), row(vec)]
    return "\n".join(lines) + "\n"


class TestSyntheticMode:
    def test_convergence_slopes_exactly_two(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", TINY)
        out = tmp_path / "syn"
        assert main(["convergence", "--config", cfg, "--out", str(out),
                     "--synthetic"]) == 0
        text = (out / "convergence.csv").read_text()
        slopes = [float(line.split()[-1]) for line in text.splitlines()
                  if line.startswith("# slope_")]
        assert len(slopes) == 2
        for s in slopes:
            assert abs(s - 2.0) <= 1e-6

    def test_taylor_slopes_exactly_two(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", TINY)
        out = tmp_path / "syn"
        assert main(["taylor", "--config", cfg, "--out", str(out),
                     "--synthetic"]) == 0
        text = (out / "taylor.csv").read_text()
        for line in text.splitlines():
            if line.startswith("# slope sample="):
                assert abs(float(line.split()[-1]) - 2.0) <= 1e-6
        # the eps = 0 rows are exactly zero
        zero_rows = [l for l in text.splitlines() if ",0," in l]
        assert zero_rows
        assert all(l.rsplit(",", 1)[1] == "0" for l in zero_rows)


@pytest.mark.parametrize("command", [
    ["build-kl"], ["mc"],
    ["solve-one", "--y", "0", "--z", "0", "--eps", "0.5"],
], ids=["build-kl", "mc", "solve-one"])
def test_synthetic_rejected_where_it_does_nothing(command, tmp_path):
    cfg = write_config(tmp_path / "c.cfg", TINY)
    with pytest.raises(SystemExit) as exc:
        main(command + ["--config", cfg, "--out", str(tmp_path / "o"),
                        "--synthetic"])
    assert exc.value.code == 2


class TestSecondOrderVariance:
    def test_correction_reduces_variance_error(self, tiny_run, tmp_path):
        cfg, out = tiny_run
        plain = tmp_path / "plain"
        corrected = tmp_path / "corr"
        for target, extra in ((plain, []), (corrected,
                                            ["--second-order-variance"])):
            os.makedirs(target, exist_ok=True)
            for name in ("vector_field.txt", "coefficient.txt",
                         "kl_manifest.txt"):
                (target / name).write_bytes(
                    open(os.path.join(out, name), "rb").read())
            assert main(["convergence", "--config", cfg, "--out", str(target)]
                        + extra) == 0

        def var_errors(path):
            rows = [l for l in (path / "convergence.csv").read_text().splitlines()
                    if l and not l.startswith(("#", "eps,"))]
            return [float(r.split(",")[2]) for r in rows]

        e_plain = var_errors(plain)
        e_corr = var_errors(corrected)
        assert all(c < p for c, p in zip(e_corr, e_plain))


class TestWorkPerSample:
    def test_mc_builds_one_problem_per_sample(self, tiny_run, tmp_path,
                                              monkeypatch):
        from domainuq import perturb
        cfg, out = artifacts_copy(tiny_run, tmp_path / "mc")
        builds = []

        class Counting(perturb.DeformedProblem):
            def __init__(self, *args, **kwargs):
                builds.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(perturb, "DeformedProblem", Counting)
        assert main(["mc", "--config", cfg, "--out", out]) == 0
        assert len(builds) == parse_config(TINY).n_mc

    def test_convergence_evaluates_rough_part_once_per_pair(
            self, tiny_run, tmp_path, monkeypatch):
        from domainuq.perturb import DeformedProblem
        cfg, out = artifacts_copy(tiny_run, tmp_path / "conv")
        calls = []
        original = DeformedProblem.rough_qvalues

        def counting(self, y):
            calls.append(1)
            return original(self, y)

        monkeypatch.setattr(DeformedProblem, "rough_qvalues", counting)
        assert main(["convergence", "--config", cfg, "--out", out,
                     "--second-order-variance"]) == 0
        assert len(calls) == parse_config(TINY).n_mc // 2

    @staticmethod
    def count_solves(monkeypatch):
        """Count `solve_dirichlet` calls; every amplitude of every domain
        realization of a solve block goes through one lockstep call."""
        import domainuq.perturb as perturb
        calls = []
        original = perturb.solve_dirichlet

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(perturb, "solve_dirichlet", counting)
        return calls

    def test_convergence_one_solve_call_per_pair_and_node(
            self, tiny_run, tmp_path, monkeypatch):
        from domainuq.uq import smolyak_rule
        cfg, out = artifacts_copy(tiny_run, tmp_path / "c")
        calls = self.count_solves(monkeypatch)
        assert main(["convergence", "--config", cfg, "--out", out]) == 0
        n_z = load_vector_field(os.path.join(out, "vector_field.txt")).n_modes
        config = parse_config(TINY)
        nodes = len(smolyak_rule(n_z, config.quad_level).nodes)
        assert len(calls) == (-(-(config.n_mc // 2) // SOLVE_BLOCK)
                              + -(-nodes // QUADRATURE_BLOCK))

    def test_mc_one_solve_call_per_sample(self, tiny_run, tmp_path,
                                          monkeypatch):
        cfg, out = artifacts_copy(tiny_run, tmp_path / "m")
        calls = self.count_solves(monkeypatch)
        assert main(["mc", "--config", cfg, "--out", out]) == 0
        assert len(calls) == -(-parse_config(TINY).n_mc // SOLVE_BLOCK)


def test_paired_sweep_error_names_the_failing_pair():
    from domainuq import cli
    from domainuq.errors import NonPositiveCoefficient
    cfg = parse_config(TINY)
    model = cli.SyntheticModel(cli.build_disc_mesh(cfg.mesh_level))
    blocks = []

    def factory(samples, amplitudes, with_delta):
        blocks.append(len(samples))
        if len(blocks) == 2:
            raise NonPositiveCoefficient("at amplitude -1.0", index=2)
        return model.pairs(samples, amplitudes, with_delta)

    assert SOLVE_BLOCK == 4
    with pytest.raises(NonPositiveCoefficient,
                       match="^sample pair 6: at amplitude -1.0$"):
        cli._paired_sweep(cfg, model.dims, factory, threads=1)
    assert blocks == [4, 4]


class TestConvergenceCSV:
    def test_eps_column_echoes_config(self, tiny_run):
        cfg, out = tiny_run
        assert main(["convergence", "--config", cfg, "--out", out]) == 0
        lines = open(os.path.join(out, "convergence.csv")).read().splitlines()
        data = [l for l in lines if l and not l.startswith("#")
                and not l.startswith("eps")]
        eps = [float(l.split(",")[0]) for l in data]
        assert eps == [0.5, 1.0]
        header = [l for l in lines if l.startswith("eps,")][0]
        assert header == "eps,err_mean_h1,err_var_w11,mc_stderr_mean,n_samples"
        assert any(l.startswith("# config_hash=") for l in lines)
        # gnuplot companions carry the same number of rows
        dat = open(os.path.join(out, "convergence_mean.dat")).read()
        assert len(dat.splitlines()) == len(eps)


def test_cli_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "domainuq.cli", "--version"],
        capture_output=True, text=True)
    assert proc.returncode == 0


def test_one_thread_never_loads_the_process_pool(tiny_run, tmp_path):
    cfg, out = artifacts_copy(tiny_run, tmp_path / "p")
    script = (
        "import sys\n"
        "from domainuq.cli import main\n"
        f"for command in ('build-kl', 'convergence', 'mc'):\n"
        f"    assert main([command, '--config', {cfg!r}, '--out', {out!r},\n"
        f"                 '--threads', '1']) == 0\n"
        "print([m for m in ('multiprocessing', 'concurrent.futures.process')\n"
        "       if m in sys.modules])\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
