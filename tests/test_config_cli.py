import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from domainuq.cli import main
from domainuq.config import ExperimentConfig, config_hash, parse_config
from domainuq.errors import ConfigError
from domainuq.fem import field_to_text
from domainuq.fields import (draw_sample, load_scalar_field,
                             load_vector_field, save_scalar_field,
                             save_vector_field)
from domainuq.lowrank import KLBasis
from domainuq.textio import hex_row
from domainuq.uq import QUADRATURE_BLOCK, SOLVE_BLOCK
from test_fem import field_from_text
from test_mesh import mesh_from_text


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

    def test_hash_is_pinned(self):
        """The `# config_hash=` header of the defaults, and of a config
        with every key moved off its default, keeps its value; numpy ints
        hash as Python ints, and out_dir is not hashed."""
        assert config_hash(ExperimentConfig()) == "ba18a99b9251038f"
        moved = parse_config(
            "mesh_level = 3\nkl_tol_v = 0.05\nkl_tol_a = 0.02\n"
            "grid_cells = 64\neps_list = 0.125, 0.5\nn_mc = 100\n"
            "n_taylor = 3\nseed = 7\nquad_level = 2\nnorm_mean = l2\n"
            "norm_var = h1\nout_dir = elsewhere\n")
        assert config_hash(moved) == "7d252b4357d3a406"
        assert config_hash(replace(moved, mesh_level=np.int64(3),
                                   seed=np.int32(7), out_dir="out")) \
            == "7d252b4357d3a406"
        ci_tiny = parse_config(
            "mesh_level = 2\ngrid_cells = 16\nn_mc = 8\nquad_level = 1\n")
        assert config_hash(ci_tiny) == "992a3dc647615bd4"

    @pytest.mark.parametrize("blocked", [(), ("_sha2", "_sha256")],
                             ids=["builtin", "fallback"])
    @pytest.mark.parametrize("text", ["seed=0\n", "out=Übung/δ\n", ""],
                             ids=["ascii", "non-ascii", "empty"])
    def test_sha256_is_hashlibs(self, text, blocked, monkeypatch):
        """The built-in sha256 gives hashlib's digest, and so does the
        hashlib fallback of an interpreter built without it."""
        import hashlib

        from domainuq import config
        expected = hashlib.sha256(text.encode()).hexdigest()
        calls, real = [], hashlib.sha256
        monkeypatch.setattr(hashlib, "sha256",
                            lambda data: calls.append(data) or real(data))
        for name in blocked:
            monkeypatch.setitem(sys.modules, name, None)
        assert config._sha256_hex(text) == expected
        assert calls == [text.encode()] * bool(blocked)


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
        delta = field_from_text(open(os.path.join(out, "delta_u.txt")).read())
        assert np.array_equal(delta, np.zeros(len(delta)))

    def test_outputs_reloadable(self, tiny_run):
        cfg, out = tiny_run
        assert main(["solve-one", "--config", cfg, "--out", out,
                     "--y", "0", "--z", "0", "--eps", "0.5"]) == 0
        text = open(os.path.join(out, "u_eps.txt")).read()
        assert field_to_text(field_from_text(text)) == text
        dmesh = mesh_from_text(
            open(os.path.join(out, "deformed_mesh.txt")).read())
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

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "under-file"])
    def test_out_that_cannot_be_created(self, tmp_path, capsys, sub):
        taken = tmp_path / "file"
        taken.write_text("a regular file\n")
        out = taken / sub if sub else taken
        assert main(["build-kl", "--out", str(out)]) == 2
        assert "cannot create output directory" in capsys.readouterr().err
        assert taken.read_text() == "a regular file\n"

    def test_missing_artifacts(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", TINY)
        assert main(["convergence", "--config", cfg,
                     "--out", str(tmp_path / "empty")]) == 2

    @pytest.mark.parametrize("content, expected", [
        (b"nonsense = 1\n", "unknown key"),
        (b"\xff\xfe mesh_level = 2\n", "cannot read config")],
        ids=["unknown-key", "not-utf-8"])
    def test_bad_config_file(self, tmp_path, capsys, content, expected):
        path = tmp_path / "c.cfg"
        path.write_bytes(content)
        assert main(["mc", "--config", str(path)]) == 2
        assert expected in capsys.readouterr().err

    def test_convergence_with_odd_n_mc(self, tiny_run, tmp_path, capsys):
        """The antithetic sweep needs whole pairs; mc takes any count."""
        _, out = artifacts_copy(tiny_run, tmp_path / "odd")
        cfg = write_config(tmp_path / "odd.cfg",
                           TINY.replace("n_mc = 32", "n_mc = 3"))
        for flags in ([], ["--synthetic"]):
            assert main(["convergence", *flags, "--config", cfg,
                         "--out", out]) == 2
            assert "n_mc = 3" in capsys.readouterr().err
        assert sorted(os.listdir(out)) == ["coefficient.txt",
                                           "kl_manifest.txt",
                                           "vector_field.txt"]
        assert main(["mc", "--config", cfg, "--out", out]) == 0
        assert "\n0.5,3," in open(os.path.join(out, "mc.csv")).read()

    def test_quadrature_rule_over_budget(self, tiny_run, tmp_path, capsys,
                                         monkeypatch):
        """A rule above `MAX_QUAD_NODES` is refused with its node count
        before it is built or anything is solved."""
        import domainuq.cli as cli

        def unbuilt(*args):
            raise AssertionError("smolyak_rule called")

        monkeypatch.setattr(cli, "smolyak_rule", unbuilt)
        _, out = artifacts_copy(tiny_run, tmp_path / "q")
        n_z = load_vector_field(os.path.join(out, "vector_field.txt")).n_modes
        cfg = write_config(tmp_path / "q.cfg",
                           TINY.replace("quad_level = 1", "quad_level = 3"))
        count = cli.smolyak_node_bound(n_z, 3)
        assert count > cli.MAX_QUAD_NODES
        assert main(["convergence", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"{count} nodes" in err
        assert sorted(os.listdir(out)) == ["coefficient.txt",
                                           "kl_manifest.txt",
                                           "vector_field.txt"]

    def test_numerical_failure(self, tiny_run, tmp_path, capsys):
        cfg_text = TINY.replace("eps_list = 0.5, 1", "eps_list = 0.5, 50")
        cfg = write_config(tmp_path / "big.cfg", cfg_text)
        _, out = tiny_run
        assert main(["taylor", "--config", cfg, "--out", out]) == 3
        assert "sample 0: " in capsys.readouterr().err

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

    @pytest.mark.parametrize("prefix, expected", [
        (b"", "not recorded"), (b"\xff\xfe", "cannot read KL manifest")],
        ids=["no-tolerances", "not-utf-8"])
    def test_manifest_without_tolerances(self, tiny_run, tmp_path, capsys,
                                         prefix, expected):
        cfg, out = artifacts_copy(tiny_run, tmp_path / "a")
        path = os.path.join(out, "kl_manifest.txt")
        lines = open(path).read().splitlines()
        with open(path, "wb") as f:
            f.write(prefix + ("\n".join(l for l in lines
                                        if not l.startswith("kl_tol_"))
                              + "\n").encode())
        assert main(["mc", "--config", cfg, "--out", out]) == 2
        assert expected in capsys.readouterr().err

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
    @pytest.mark.parametrize("damage", [
        "decimal", "row_one_value_short", "non_hex_digit", "half_the_lines",
        "one_extra_mode_row", "trailing_blank_line",
        "non_utf8_byte_in_a_mode_row"])
    def test_damaged_artifact(self, tiny_run, tmp_path, capsys, damage, name):
        cfg, out = artifacts_copy(tiny_run, tmp_path / "a")
        path = os.path.join(out, name)
        if damage == "decimal":
            data = decimal_artifact(path).encode()
        else:
            with open(path, "rb") as f:
                lines = f.read().splitlines()
            row = 4  # the first mode
            if damage == "row_one_value_short":
                lines[row] = lines[row][:-16]
            elif damage == "non_hex_digit":
                lines[row] = lines[row][:5] + b"x" + lines[row][6:]
            elif damage == "non_utf8_byte_in_a_mode_row":
                lines[row] = lines[row][:5] + b"\xff" + lines[row][6:]
            elif damage == "one_extra_mode_row":
                lines.append(lines[row])
            elif damage == "trailing_blank_line":
                lines.append(b"")
            else:
                lines = lines[:len(lines) // 2]
            data = b"\n".join(lines) + b"\n"
        with open(path, "wb") as f:
            f.write(data)
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
    @pytest.mark.parametrize("n_mc", [32, 2], ids=["16-pairs", "one-pair"])
    def test_convergence_slopes_exactly_two(self, tmp_path, n_mc):
        cfg = write_config(tmp_path / "c.cfg",
                           TINY.replace("n_mc = 32", f"n_mc = {n_mc}"))
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

    def test_taylor_one_eps_leaves_slopes_undefined(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg", TINY.replace(
            "eps_list = 0.5, 1", "eps_list = 0.5"))
        out = tmp_path / "one"
        assert main(["taylor", "--config", cfg, "--out", str(out),
                     "--synthetic"]) == 0
        lines = (out / "taylor.csv").read_text().splitlines()
        rows = [l for l in lines if l[0].isdigit()]
        assert [l.split(",")[:2] for l in rows] == [
            [str(s), eps] for s in range(2) for eps in ("0", "0.5")]
        assert lines[-3:] == ["# slope sample=0 undefined",
                              "# slope sample=1 undefined",
                              "# slope_mean undefined"]


@pytest.mark.parametrize("flags", [[], ["--synthetic"]],
                         ids=["fe", "synthetic"])
def test_taylor_same_bytes_for_any_thread_count(tiny_run, tmp_path,
                                                monkeypatch, flags):
    """Nine samples make three solve blocks, spread over two workers."""
    from domainuq import uq
    monkeypatch.setattr(uq, "_cpu_count", lambda: 2)  # one-CPU hosts
    cfg = write_config(tmp_path / "t.cfg",
                       TINY.replace("n_taylor = 2", "n_taylor = 9"))
    outputs = []
    for threads in ("1", "2"):
        _, out = artifacts_copy(tiny_run, tmp_path / f"t{threads}")
        assert main(["taylor", *flags, "--config", cfg, "--out", out,
                     "--threads", threads]) == 0
        outputs.append(open(os.path.join(out, "taylor.csv"), "rb").read())
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"# slope sample=") == 9


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


@pytest.mark.parametrize("command", [
    ["build-kl"], ["solve-one", "--y", "0", "--z", "0", "--eps", "0.5"],
], ids=["build-kl", "solve-one"])
def test_threads_rejected_where_there_is_no_sample_loop(command, tmp_path):
    cfg = write_config(tmp_path / "c.cfg", TINY)
    with pytest.raises(SystemExit) as exc:
        main(command + ["--config", cfg, "--out", str(tmp_path / "o"),
                        "--threads", "2"])
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


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

    def test_solve_one_deforms_the_mesh_once(self, tiny_run, tmp_path,
                                            monkeypatch):
        from domainuq import perturb
        cfg, out = artifacts_copy(tiny_run, tmp_path / "one")
        calls = []
        original = perturb.displace

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(perturb, "displace", counting)
        assert main(["solve-one", "--config", cfg, "--out", out,
                     "--y", "0", "--z", "0", "--eps", "0.5"]) == 0
        assert len(calls) == 1

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

    @pytest.mark.parametrize("n_mc", [32, 2], ids=["16-pairs", "one-pair"])
    def test_convergence_one_solve_call_per_pair_and_node(
            self, tiny_run, tmp_path, monkeypatch, n_mc):
        from domainuq.uq import smolyak_rule
        _, out = artifacts_copy(tiny_run, tmp_path / "c")
        text = TINY.replace("n_mc = 32", f"n_mc = {n_mc}")
        cfg = write_config(tmp_path / "c.cfg", text)
        calls = self.count_solves(monkeypatch)
        assert main(["convergence", "--config", cfg, "--out", out]) == 0
        n_z = load_vector_field(os.path.join(out, "vector_field.txt")).n_modes
        config = parse_config(text)
        nodes = len(smolyak_rule(n_z, config.quad_level).nodes)
        assert len(calls) == (-(-(config.n_mc // 2) // SOLVE_BLOCK)
                              + -(-nodes // QUADRATURE_BLOCK))

    def test_mc_one_solve_call_per_sample(self, tiny_run, tmp_path,
                                          monkeypatch):
        cfg, out = artifacts_copy(tiny_run, tmp_path / "m")
        calls = self.count_solves(monkeypatch)
        assert main(["mc", "--config", cfg, "--out", out]) == 0
        assert len(calls) == -(-parse_config(TINY).n_mc // SOLVE_BLOCK)

    def test_taylor_two_solve_calls_per_block(self, tiny_run, tmp_path,
                                              monkeypatch):
        """Every amplitude of a block's samples in one lockstep call, and
        their derivative solves in a second."""
        _, out = artifacts_copy(tiny_run, tmp_path / "t")
        cfg = write_config(tmp_path / "t.cfg",
                           TINY.replace("n_taylor = 2", "n_taylor = 5"))
        calls = self.count_solves(monkeypatch)
        assert main(["taylor", "--config", cfg, "--out", out]) == 0
        assert len(calls) == 2 * -(-5 // SOLVE_BLOCK)


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


@pytest.mark.parametrize("change", [-1, 1], ids=["-1", "1"])
@pytest.mark.parametrize("with_delta", [False, True])
def test_paired_sweep_field_of_another_length_names_the_pair(change,
                                                             with_delta):
    """The fields of pairs 4 to 7, the second solve block, are one value
    shorter (numpy would broadcast them into wrong moments) or one value
    longer than pair 0's.  A block's fields are rows of one array, so
    they all have one length, and the block is named by its first pair."""
    from domainuq import cli
    from domainuq.errors import MeshMismatch
    cfg = parse_config(TINY)
    model = cli.SyntheticModel(cli.build_disc_mesh(cfg.mesh_level))
    calls = []

    def factory(samples, amplitudes, with_delta):
        calls.append(len(samples))
        u, delta = model.pairs(samples, amplitudes, with_delta)
        if len(calls) == 2:
            n = u.shape[-1] + change
            u = np.resize(u, u.shape[:-1] + (n,))
            if delta is not None:
                delta = np.resize(delta, delta.shape[:-1] + (n,))
        return u, delta

    with pytest.raises(MeshMismatch, match=r"^sample pair 4: field of \d+ "
                                           r"values, sample pair 0 gave \d+$"):
        cli._paired_sweep(cfg, model.dims, factory, threads=1,
                          with_delta=with_delta)
    assert calls == [SOLVE_BLOCK, SOLVE_BLOCK]


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

    def test_columns_named_after_the_norms(self, tmp_path):
        cfg = write_config(tmp_path / "c.cfg",
                           TINY + "norm_mean = l2\nnorm_var = h1\n")
        out = tmp_path / "norms"
        assert main(["convergence", "--config", cfg, "--out", str(out),
                     "--synthetic"]) == 0
        lines = (out / "convergence.csv").read_text().splitlines()
        header = [l for l in lines if l.startswith("eps,")][0]
        assert header == "eps,err_mean_l2,err_var_h1,mc_stderr_mean,n_samples"


@pytest.mark.parametrize("with_delta", [False, True])
def test_models_return_the_solve_block_shape(tiny_run, with_delta):
    from domainuq import cli
    cfg, out = tiny_run
    config = replace(parse_config(open(cfg).read()), out_dir=out)
    mesh = cli.build_disc_mesh(config.mesh_level)
    amplitudes = [0.0, -0.5, 0.5]
    for model in (cli._model(config, mesh, False), cli.SyntheticModel(mesh)):
        samples = [draw_sample(*model.dims, 0, i) for i in range(3)]
        u, delta = model.pairs(samples, amplitudes, with_delta)
        assert u.dtype == float
        assert u.shape == (len(samples), len(amplitudes), mesh.n_nodes)
        if with_delta:
            assert delta.dtype == float
            assert delta.shape == (len(samples), mesh.n_nodes)
        else:
            assert delta is None
        u0 = model.u0([s.z for s in samples])
        assert u0.dtype == float
        assert u0.shape == (len(samples), mesh.n_nodes)


def test_cli_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "domainuq.cli", "--version"],
        capture_output=True, text=True)
    assert proc.returncode == 0


def test_malloc_thresholds_are_pinned_only_on_glibc(monkeypatch):
    from domainuq import cli

    calls = []

    class Libc:
        def mallopt(self, param, value):
            calls.append((param, value))
            return 1

    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: Libc())
    monkeypatch.setattr(cli.os, "confstr", lambda name: "glibc 2.36")
    cli.pin_malloc_thresholds()
    assert calls == [(cli.M_TRIM_THRESHOLD, 64 << 20),
                     (cli.M_MMAP_THRESHOLD, 32 << 20)]

    def not_glibc(name):
        raise ValueError("unrecognized configuration name")

    calls.clear()
    monkeypatch.setattr(cli.os, "confstr", not_glibc)
    cli.pin_malloc_thresholds()
    assert calls == []


@pytest.mark.parametrize("command, pinned", [
    ("build-kl", 0), ("solve-one", 1), ("mc", 1), ("taylor", 1),
    ("convergence", 1)])
def test_solve_commands_pin_the_malloc_thresholds(command, pinned,
                                                  monkeypatch, tmp_path):
    from domainuq import cli

    calls = []
    monkeypatch.setattr(cli, "pin_malloc_thresholds",
                        lambda: calls.append(command))
    name = "cmd_" + command.replace("-", "_")
    monkeypatch.setattr(cli, name, lambda *args: None)
    extra = ["--y", "0", "--z", "0", "--eps", "0.5"] * (command == "solve-one")
    assert main([command, "--out", str(tmp_path), *extra]) == 0
    assert calls == [command] * pinned


#: A level-4 config: its solves build the two-level V-cycle hierarchy.
LEVEL4 = "mesh_level = 4\ngrid_cells = 16\nn_mc = 4\nn_taylor = 2\n"


@pytest.fixture(scope="module")
def level4_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("level4")
    cfg = root / "l4.cfg"
    cfg.write_text(LEVEL4)
    out = root / "out"
    assert main(["build-kl", "--config", str(cfg), "--out", str(out)]) == 0
    return str(cfg), str(out)


#: Modules that no command loads at `--threads 1`: `numpy.ma` and the
#: process pool, with the `logging` that it imports.  `build-kl` and
#: `solve-one` load no OpenSSL (`hashlib`) either; the sample commands do,
#: through `numpy.random`.
UNUSED_MODULES = ("numpy.ma", "concurrent.futures", "logging",
                  "multiprocessing")
UNUSED_WITHOUT_SAMPLES = ("hashlib", "_hashlib", *UNUSED_MODULES)


@pytest.mark.parametrize("command", ["build-kl", "solve-one", "mc", "taylor",
                                     "convergence"])
def test_commands_load_only_scipy_kernels(command, level4_run, tmp_path):
    """Importing the command line loads no scipy module, and a whole run
    of each command, its V-cycles and norms included, loads only scipy's
    compiled sparse kernels: `scipy` and `scipy.sparse` stay unimported.
    Nor does it load any module it does not compute with; the sample
    commands run at `--threads 1`, which starts no process pool."""
    unused = (UNUSED_WITHOUT_SAMPLES if command in ("build-kl", "solve-one")
              else UNUSED_MODULES)
    cfg, _ = level4_run
    if command == "build-kl":
        out = str(tmp_path / "kl")
    else:
        cfg, out = artifacts_copy(level4_run, tmp_path / "out")
    extra = {"solve-one": ["--y", "0", "--z", "0", "--eps", "0.5"],
             "build-kl": []}.get(command, ["--threads", "1"])
    argv = [command, "--config", cfg, "--out", out, *extra]
    script = (
        "import contextlib, io, sys\n"
        "from domainuq.cli import main\n"
        "imported = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    status = main({argv!r})\n"
        "assert status == 0, status\n"
        "print(imported, [m for m in sys.modules\n"
        "                 if m.split('.')[0] == 'scipy'])\n"
        f"print([m for m in {unused!r} if m in sys.modules])\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == [
        "[] ['scipy.sparse._sparsetools']", "[]"]


def test_model_loads_the_kernels_before_workers_fork(vf4, sf64):
    """`FEModel` builds the V-cycle hierarchy in the command's process, so
    forked workers inherit the loaded kernels and never load them."""
    from domainuq import cli, fem
    fem._kernels.cache_clear()
    try:
        cli.FEModel(cli.build_disc_mesh(4), vf4, sf64)  # a new topology
        assert fem._kernels.cache_info().currsize == 1
    finally:
        fem._kernels.cache_clear()


def test_blas_is_pinned_through_each_mapped_openblas(monkeypatch, tmp_path):
    from domainuq import cli

    calls = []

    class Setter:
        def __init__(self, path):
            self.path = path

        def __call__(self, threads):
            assert self.argtypes == [cli.ctypes.c_int]
            calls.append((self.path, threads))

    symbols = {"/numpy.libs/libscipy_openblas64_-1.so":
               "scipy_openblas_set_num_threads64_",
               "/scipy.libs/libscipy_openblas-2.so":
               "scipy_openblas_set_num_threads",
               "/usr/lib/libopenblas.so.0": "openblas_set_num_threads",
               "/usr/lib/libopenblas_nosymbols.so": None}

    def fake_cdll(path):
        lib = type("Lib", (), {})()
        if symbols[path]:
            setattr(lib, symbols[path], Setter(path))
        return lib

    maps = tmp_path / "maps"
    maps.write_text(
        "7f00-7f01 r--p 00000000 08:01 11 /usr/lib/libc.so.6\n"
        "7f01-7f02 rw-p 00000000 00:00 0\n"
        + "".join(f"7f02-7f03 r-xp 00000000 08:01 12 {path}\n"
                  for path in [*symbols, *symbols]))
    monkeypatch.setattr(cli, "PROC_MAPS", str(maps))
    monkeypatch.setattr(cli.ctypes, "CDLL", fake_cdll)
    cli.pin_blas_threads()
    assert sorted(calls) == sorted((path, 1) for path, name in symbols.items()
                                   if name)

    calls.clear()
    monkeypatch.setattr(cli, "PROC_MAPS", str(tmp_path / "absent"))
    cli.pin_blas_threads()
    assert calls == []


@pytest.mark.parametrize("command", [
    "build-kl", "solve-one", "mc", "taylor", "convergence"])
def test_every_command_pins_blas(command, monkeypatch, tmp_path):
    from domainuq import cli

    calls = []
    monkeypatch.setattr(cli, "pin_blas_threads",
                        lambda: calls.append(command))
    monkeypatch.setattr(cli, "pin_malloc_thresholds", lambda: None)
    name = "cmd_" + command.replace("-", "_")
    monkeypatch.setattr(cli, name, lambda *args: None)
    extra = ["--y", "0", "--z", "0", "--eps", "0.5"] * (command == "solve-one")
    assert main([command, "--out", str(tmp_path), *extra]) == 0
    assert calls == [command]


def test_commands_leave_every_openblas_on_one_thread(tiny_run, tmp_path):
    """From an environment that does not pin BLAS, `build-kl` and
    `convergence` leave each OpenBLAS mapped into the process on one
    thread."""
    cfg, _ = tiny_run
    out = str(tmp_path / "out")
    script = (
        "import ctypes\n"
        "from domainuq.cli import main\n"
        f"common = ['--config', {cfg!r}, '--out', {out!r}]\n"
        "assert main(['build-kl', *common]) == 0\n"
        "assert main(['convergence', *common]) == 0\n"
        "with open('/proc/self/maps') as f:\n"
        "    paths = {line.split(maxsplit=5)[5].strip() for line in f\n"
        "             if 'openblas' in line}\n"
        "counts = []\n"
        "for path in sorted(paths):\n"
        "    lib = ctypes.CDLL(path)\n"
        "    for name in ('scipy_openblas_get_num_threads64_',\n"
        "                 'scipy_openblas_get_num_threads',\n"
        "                 'openblas_get_num_threads'):\n"
        "        if hasattr(lib, name):\n"
        "            counts.append(getattr(lib, name)())\n"
        "            break\n"
        "print(counts)\n")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout.splitlines()[-1])
    if not counts:
        pytest.skip("no OpenBLAS is mapped (numpy uses another BLAS)")
    assert counts == [1] * len(counts)
