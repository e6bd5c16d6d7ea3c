import multiprocessing
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import domainuq as dq
from domainuq.errors import MeshMismatch, NonPositiveData
from domainuq.fem import NodalField, h1_norm, _h1_gram
from domainuq.perturb import solve_block
from domainuq.uq import (RunningMoments, Statistics, field_error,
                         gauss_legendre_1d, map_blocks, mc_estimate,
                         quadrature_estimate, sample_blocks, slope_fit,
                         QUADRATURE_BLOCK, SOLVE_BLOCK,
                         smolyak_rule, statistics_from_text,
                         statistics_to_text, tree_merge)


def each(fn):
    """The block solver that applies `fn` to every item of its block.  An
    error raised by `fn` carries the position of its item as `index`, as
    one raised by a lockstep block solve does."""
    def block(items):
        out = []
        for j, item in enumerate(items):
            try:
                out.append(fn(item))
            except dq.DomainUQError as e:
                e.index = j
                raise
        return out
    return block


class TestRunningMoments:
    def test_matches_direct_formulas(self):
        rng = np.random.default_rng(0)
        xs = rng.standard_normal((100, 5))
        acc = RunningMoments(5)
        for x in xs:
            acc.update(x)
        assert np.allclose(acc.mean, xs.mean(axis=0), rtol=1e-12)
        assert np.allclose(acc.m2 / 99, xs.var(axis=0, ddof=1), rtol=1e-12)

    def test_partition_merge_invariance(self):
        rng = np.random.default_rng(1)
        xs = rng.standard_normal((101, 3)) * 10 + 4
        single = RunningMoments(3)
        for x in xs:
            single.update(x)
        blocks = []
        for lo, hi in sample_blocks(101, block_size=7):
            acc = RunningMoments(3)
            for x in xs[lo:hi]:
                acc.update(x)
            blocks.append(acc)
        merged = tree_merge(blocks)
        assert merged.count == single.count
        assert np.allclose(merged.mean, single.mean, rtol=1e-12)
        assert np.allclose(merged.m2, single.m2, rtol=1e-12)


    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_partition_merge_matches_one_pass(self, data):
        n = data.draw(st.integers(1, 60), label="n")
        cuts = data.draw(st.lists(st.integers(1, max(n - 1, 1)),
                                  max_size=12, unique=True), label="cuts")
        scale = data.draw(st.floats(1e-3, 1e3), label="scale")
        shift = data.draw(st.floats(-1e3, 1e3), label="shift")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        xs = np.random.default_rng(seed).standard_normal((n, 3)) * scale + shift
        single = RunningMoments(3)
        for x in xs:
            single.update(x)
        edges = [0] + sorted(c for c in cuts if c < n) + [n]
        blocks = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            acc = RunningMoments(3)
            for x in xs[lo:hi]:
                acc.update(x)
            blocks.append(acc)
        merged = tree_merge(blocks)
        assert merged.count == n
        spread = np.abs(xs - xs.mean(axis=0)).max(axis=0)
        # rounding of a Welford pass: a few ulps of the data magnitude in
        # every deviation, so n of them times the spread in m2
        ulp = 1e-13 * (np.abs(xs).max(axis=0) + spread)
        assert np.all(np.abs(merged.mean - single.mean) <= ulp)
        assert np.all(np.abs(merged.m2 - single.m2)
                      <= 1e-11 * single.m2 + n * ulp * spread)


class TestMCEstimate:
    def test_constant_solver(self):
        c = np.array([3.0, -1.0])
        stats = mc_estimate(each(lambda s: NodalField(c, 0)), (2, 2), 50,
                            seed=0)
        assert np.array_equal(stats.mean.values, c)
        assert np.array_equal(stats.variance().values, np.zeros(2))

    def test_uniform_moments(self):
        stats = mc_estimate(each(lambda s: NodalField(s.y[:1], 0)), (1, 1),
                            10 ** 5, seed=0)
        assert abs(stats.mean.values[0]) <= 3.0 / np.sqrt(10 ** 5)
        assert abs(stats.variance().values[0] - 1.0) <= 0.05

    def test_thread_count_invariance(self):
        def solver(s):
            return NodalField(np.array([s.y[0] * s.z[1], s.z[0] ** 2]), 0)

        a = mc_estimate(each(solver), (2, 2), 333, seed=5, threads=1)
        b = mc_estimate(each(solver), (2, 2), 333, seed=5, threads=4)
        assert np.array_equal(a.mean.values, b.mean.values)
        assert np.array_equal(a.second_central.values, b.second_central.values)

    def test_list_solver_matches_one_estimate_per_output(self):
        def first(s):
            return NodalField(np.array([s.y[0] * s.z[1], s.z[0] ** 2]), 0)

        def second(s):
            return NodalField(np.array([s.y[1] - s.z[0]]), 0)

        both = mc_estimate(each(lambda s: [first(s), second(s)]), (2, 2),
                           99, seed=4, threads=3)
        for stats, solver in zip(both, (first, second)):
            alone = mc_estimate(each(solver), (2, 2), 99, seed=4)
            assert stats.weight == alone.weight
            assert np.array_equal(stats.mean.values, alone.mean.values)
            assert np.array_equal(stats.second_central.values,
                                  alone.second_central.values)

    def test_error_reports_sample_index(self):
        def solver(s):
            if s.z[0] > 0:
                raise dq.SolverDiverged("boom")
            return NodalField(np.zeros(1), 0)

        with pytest.raises(dq.SolverDiverged, match=r"sample \d+"):
            mc_estimate(each(solver), (1, 1), 64, seed=0)

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            mc_estimate(each(lambda s: NodalField(np.zeros(1), 0)), (1, 1),
                        1, 0)

    @settings(max_examples=25, deadline=None)
    @given(n_samples=st.integers(2, 200), threads=st.integers(1, 4))
    @example(n_samples=33, threads=2)
    @example(n_samples=200, threads=4)
    def test_bit_identical_for_any_thread_count(self, n_samples, threads):
        def solver(s):
            return NodalField(np.array([s.y[0] * s.z[1], s.z[0] ** 2,
                                        np.exp(s.y[1])]), 0)

        serial = mc_estimate(each(solver), (2, 2), n_samples, seed=3)
        spread = mc_estimate(each(solver), (2, 2), n_samples, seed=3,
                             threads=threads)
        assert spread.weight == serial.weight == n_samples
        assert np.array_equal(spread.mean.values, serial.mean.values)
        assert np.array_equal(spread.second_central.values,
                              serial.second_central.values)

    def test_block_solver_gets_consecutive_samples(self):
        blocks = []

        def block_solver(samples):
            blocks.append(samples)
            return [NodalField(np.array([s.y[0] * s.z[1]]), 0)
                    for s in samples]

        stats = mc_estimate(block_solver, (2, 2), 45, seed=8)
        assert [len(b) for b in blocks] == [SOLVE_BLOCK] * 11 + [1]
        drawn = [s for b in blocks for s in b]
        for i, s in enumerate(drawn):
            expected = dq.draw_sample(2, 2, 8, i)
            assert np.array_equal(s.y, expected.y)
            assert np.array_equal(s.z, expected.z)
        assert stats.weight == 45
        values = np.array([s.y[0] * s.z[1] for s in drawn])
        assert np.isclose(stats.mean.values[0], values.mean(), rtol=1e-13)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_block_error_names_the_failing_sample(self, threads):
        def block_solver(samples):
            if np.array_equal(samples[0].z,
                              dq.draw_sample(1, 1, 0, SOLVE_BLOCK).z):
                raise dq.SolverDiverged("stuck in column 5", index=2)
            return [NodalField(np.zeros(1), 0) for _ in samples]

        assert SOLVE_BLOCK == 4
        with pytest.raises(dq.SolverDiverged,
                           match="^sample 6: stuck in column 5$"):
            mc_estimate(block_solver, (1, 1), 12, seed=0, threads=threads)

    def test_block_error_without_index_names_the_block(self):
        def block_solver(samples):
            raise dq.NonFiniteValue("bad")

        with pytest.raises(dq.NonFiniteValue, match="^samples 0 to 3: bad$"):
            mc_estimate(block_solver, (1, 1), 12, seed=0)

    def test_worker_error_reports_sample_index(self):
        bad = dq.draw_sample(1, 1, 0, 37)

        def solver(s):
            if np.array_equal(s.y, bad.y) and np.array_equal(s.z, bad.z):
                raise dq.NonPositiveCoefficient("negative")
            return NodalField(np.zeros(1), 0)

        with pytest.raises(dq.NonPositiveCoefficient, match="sample 37: "):
            mc_estimate(each(solver), (1, 1), 100, seed=0, threads=3)


class TestMapBlocks:
    def test_order_kept_when_later_tasks_finish_first(self, tmp_path,
                                                       monkeypatch):
        from domainuq import uq
        monkeypatch.setattr(uq, "_cpu_count", lambda: 2)  # one-CPU hosts
        last_done = tmp_path / "task3.done"
        log = tmp_path / "finished"

        def fn(i):
            if i == 0:
                deadline = time.monotonic() + 30
                while not last_done.exists():
                    assert time.monotonic() < deadline
                    time.sleep(0.005)
            with open(log, "a") as f:
                f.write(f"{i}\n")
            if i == 3:
                last_done.touch()
            return 10 * i

        assert list(map_blocks(fn, range(4), threads=4)) == [0, 10, 20, 30]
        finished = [int(t) for t in log.read_text().split()]
        assert finished[-1] == 0

    @pytest.mark.parametrize("threads", [1, 2])
    def test_task_exception_reaches_caller(self, threads):
        def fn(i):
            if i == 2:
                raise dq.SolverDiverged(f"item {i}")
            return i

        with pytest.raises(dq.SolverDiverged, match="item 2"):
            list(map_blocks(fn, range(5), threads=threads))

    def test_dead_worker_breaks_the_map_without_hanging(self):
        script = (
            "import os\n"
            "from concurrent.futures.process import BrokenProcessPool\n"
            "from domainuq import uq\n"
            "uq._cpu_count = lambda: 2  # a pool even on a one-CPU host\n"
            "def fn(i):\n"
            "    if i == 3:\n"
            "        os._exit(1)\n"
            "    return i\n"
            "try:\n"
            "    list(uq.map_blocks(fn, range(8), threads=2))\n"
            "except BrokenProcessPool:\n"
            "    print('broken')\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "broken"

    def test_dead_worker_names_the_block_of_the_missing_outputs(self,
                                                                tmp_path):
        script = (
            "import os, sys, time\n"
            "from domainuq import uq\n"
            "from domainuq.errors import DomainUQError, WorkerDied\n"
            "uq._cpu_count = lambda: 2  # a pool even on a one-CPU host\n"
            f"done = {str(tmp_path)!r}\n"
            "def fn(block):\n"
            "    if 8 in block:\n"
            "        # die only once both earlier blocks have returned\n"
            "        deadline = time.monotonic() + 30\n"
            "        while len(os.listdir(done)) < 2:\n"
            "            assert time.monotonic() < deadline\n"
            "            time.sleep(0.005)\n"
            "        time.sleep(0.2)\n"
            "        os._exit(1)\n"
            "    if block[0] < 8:\n"
            "        open(os.path.join(done, str(block[0])), 'w').close()\n"
            "    return list(block)\n"
            "outputs = []\n"
            "try:\n"
            "    for x in uq.solve_blocks(fn, 16, 'sample pair', threads=2):\n"
            "        outputs.append(x)\n"
            "except WorkerDied as e:\n"
            "    assert isinstance(e, DomainUQError)\n"
            "    print(outputs)\n"
            "    print(e)\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs, message = proc.stdout.splitlines()
        assert outputs == str(list(range(8)))
        assert message.startswith("sample pairs 8 to 11 and later: ")

    def test_no_worker_left_after_success_or_failure(self):
        def fn(i):
            if i == 5:
                raise dq.NonFiniteValue("item 5")
            return i

        assert list(map_blocks(fn, range(5), threads=2)) == list(range(5))
        assert multiprocessing.active_children() == []
        with pytest.raises(dq.NonFiniteValue):
            list(map_blocks(fn, range(9), threads=2))
        assert multiprocessing.active_children() == []

    def test_worker_count_capped(self, monkeypatch):
        import concurrent.futures.process as process
        from domainuq import uq
        sizes = []

        class Recording:
            """Runs the tasks in this process; starts no worker."""

            def __init__(self, max_workers, mp_context):
                sizes.append(max_workers)

            def map(self, fn, iterable, chunksize):
                return map(fn, iterable)

            def shutdown(self, wait, cancel_futures):
                pass

        monkeypatch.setattr(process, "ProcessPoolExecutor", Recording)
        assert list(map_blocks(abs, range(-9, 1), threads=64)) == list(
            range(9, -1, -1))
        cpus = len(os.sched_getaffinity(0))
        assert sizes == ([min(cpus, 10)] if cpus > 1 else [])
        monkeypatch.setattr(uq, "_cpu_count", lambda: 3)
        sizes.clear()
        for n in (1, 2, 10):
            assert list(map_blocks(abs, range(n), threads=64)) == list(
                range(n))
        assert sizes == [2, 3]


class TestQuadratureEstimate:
    def test_single_node_rule(self):
        rule = gauss_legendre_1d(1)
        stats = quadrature_estimate(
            each(lambda z: NodalField(np.array([1.0 + z[0]]), 0)), rule)
        assert np.array_equal(stats.mean.values, [1.0])
        assert np.array_equal(stats.variance().values, [0.0])

    def test_linear_solver_symmetric_rule(self):
        rule = gauss_legendre_1d(4)
        stats = quadrature_estimate(
            each(lambda z: NodalField(np.array([2.0 + 3.0 * z[0]]), 0)), rule)
        # odd part cancels, the mean is the solve at the origin
        assert np.isclose(stats.mean.values[0], 2.0, rtol=1e-14)
        # exact variance of 3 y against the unit-variance density
        assert np.isclose(stats.variance().values[0], 9.0, rtol=1e-13)

    def test_variance_clamping(self):
        rule = gauss_legendre_1d(2)
        stats = quadrature_estimate(
            each(lambda z: NodalField(np.array([1.0]), 0)), rule)
        assert stats.second_central.values[0] >= -1e-12
        assert stats.variance().values[0] >= 0.0

    def test_block_error_names_the_failing_node(self):
        rule = gauss_legendre_1d(17)

        def block_solver(nodes):
            if (len(nodes) == QUADRATURE_BLOCK
                    and nodes[0, 0] == rule.nodes[8, 0]):
                raise dq.NonPositiveCoefficient("negative", index=6)
            return [NodalField(np.array([1.0]), 0) for _ in nodes]

        # the second of three blocks (nodes 8-15) fails at its seventh node
        assert QUADRATURE_BLOCK == 8
        with pytest.raises(dq.NonPositiveCoefficient,
                           match="^quadrature node 14: negative$"):
            quadrature_estimate(block_solver, rule)

    def test_quadrature_matches_mc_for_smooth_problem(self, mesh3, vf3, sf64):
        rule = smolyak_rule(vf3.n_modes, 1)
        qstats = quadrature_estimate(
            each(lambda z: solve_block(mesh3, vf3, sf64, [z])[0][0][0]), rule)

        n = 10 ** 4
        fields = np.empty((n, mesh3.n_nodes))
        for i in range(n):
            s = dq.draw_sample(sf64.n_modes, vf3.n_modes, 321, i)
            fields[i] = solve_block(mesh3, vf3, sf64, [s.z])[0][0][0].values
        mc_mean = fields.mean(axis=0)
        # H1 standard error of the MC mean from per-sample H1 deviations
        devs = fields - mc_mean
        G = _h1_gram(mesh3)
        h1sq = np.einsum("ij,ij->i", devs, (G @ devs.T).T)
        se = np.sqrt(h1sq.sum() / (n - 1) / n)
        diff = h1_norm(mesh3, NodalField(qstats.mean.values - mc_mean,
                                         mesh3.level))
        assert diff <= 3.0 * se
        # clamped mass of the second-moment form stays negligible
        clamp = max(0.0, -qstats.second_central.values.min())
        assert clamp <= 1e-10 * qstats.variance().values.max()


class TestGaussLegendre:
    def test_one_point(self):
        rule = gauss_legendre_1d(1)
        assert np.array_equal(rule.nodes, [[0.0]])
        assert np.array_equal(rule.weights, [1.0])

    def test_two_point(self):
        rule = gauss_legendre_1d(2)
        assert np.allclose(sorted(rule.nodes.ravel()), [-1.0, 1.0])
        assert np.allclose(rule.weights, [0.5, 0.5])
        second = np.sum(rule.weights * rule.nodes.ravel() ** 2)
        assert np.isclose(second, 1.0, rtol=1e-15)

    def test_three_point_fourth_moment(self):
        rule = gauss_legendre_1d(3)
        fourth = np.sum(rule.weights * rule.nodes.ravel() ** 4)
        assert np.isclose(fourth, 9.0 / 5.0, rtol=1e-14)

    def test_weights_normalized(self):
        for n in range(1, 9):
            rule = gauss_legendre_1d(n)
            assert abs(rule.weights.sum() - 1.0) <= 1e-12


class TestSmolyak:
    def test_one_dimension_degenerates(self):
        for level in range(4):
            rule = smolyak_rule(1, level)
            gl = gauss_legendre_1d(level + 1)
            order = np.argsort(rule.nodes[:, 0])
            gl_order = np.argsort(gl.nodes[:, 0])
            assert np.allclose(rule.nodes[order], gl.nodes[gl_order])
            assert np.allclose(rule.weights[order], gl.weights[gl_order])

    def test_level_zero_any_dimension(self):
        rule = smolyak_rule(7, 0)
        assert np.array_equal(rule.nodes, np.zeros((1, 7)))
        assert np.array_equal(rule.weights, [1.0])

    def test_mixed_moment_exactness(self):
        rule = smolyak_rule(2, 3)
        val = np.sum(rule.weights * rule.nodes[:, 0] ** 2
                     * rule.nodes[:, 1] ** 2)
        assert abs(val - 1.0) <= 1e-10

    def test_normalization_and_symmetry(self):
        for dim, level in ((2, 2), (3, 2), (10, 1)):
            rule = smolyak_rule(dim, level)
            assert abs(rule.weights.sum() - 1.0) <= 1e-12
            keys = {tuple(n) for n in rule.nodes}
            assert all(tuple(-n) in keys for n in rule.nodes)

    @staticmethod
    def uniform_moment(power: int) -> float:
        """E[x^power] for x uniform on [-sqrt(3), sqrt(3)]."""
        return 0.0 if power % 2 else 3.0 ** (power / 2) / (power + 1)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_exact_on_random_polynomials_of_its_space(self, data):
        """The isotropic rule is exact on the sum over |alpha| <= level of
        the tensor spaces of degree 2 alpha_j + 1 (the exactness of the 1D
        rule of order alpha_j + 1)."""
        dim = data.draw(st.integers(1, 3), label="dim")
        level = data.draw(st.integers(0, 3), label="level")
        rule = smolyak_rule(dim, level)
        n_terms = data.draw(st.integers(1, 6), label="terms")
        total = exact = scale = 0.0
        for _ in range(n_terms):
            alpha = data.draw(st.lists(st.integers(0, level), min_size=dim,
                                       max_size=dim).filter(
                                           lambda a: sum(a) <= level),
                              label="alpha")
            power = [data.draw(st.integers(0, 2 * a + 1), label="power")
                     for a in alpha]
            c = data.draw(st.floats(-10.0, 10.0), label="coefficient")
            values = c * np.prod(rule.nodes ** np.array(power), axis=1)
            total += rule.weights @ values
            exact += c * np.prod([self.uniform_moment(b) for b in power])
            scale += np.abs(rule.weights) @ np.abs(values)
        assert abs(total - exact) <= 1e-12 * max(scale, 1.0)

    def test_anisotropic_weights_thin_dimensions(self):
        iso = smolyak_rule(4, 2)
        aniso = smolyak_rule(4, 2, weights=np.array([1.0, 2.0, 3.0, 3.0]))
        assert len(aniso.nodes) < len(iso.nodes)
        assert abs(aniso.weights.sum() - 1.0) <= 1e-12

    def test_weights_from_mode_magnitudes(self, vf3):
        from domainuq.lowrank import mode_magnitudes
        from domainuq.uq import anisotropy_weights
        gamma = mode_magnitudes(vf3.basis)
        w = anisotropy_weights(gamma)
        assert w.min() >= 1.0
        assert w[np.argmax(gamma)] == 1.0
        # decaying modes get larger weights, so the rule thins out
        iso = smolyak_rule(vf3.n_modes, 1)
        aniso = smolyak_rule(vf3.n_modes, 1, weights=w)
        assert len(aniso.nodes) <= len(iso.nodes)
        assert abs(aniso.weights.sum() - 1.0) <= 1e-12


class TestFieldError:
    def make_stats(self, mesh, mean, var):
        return Statistics(weight=1.0, mean=NodalField(mean, mesh.level),
                          second_central=NodalField(var, mesh.level),
                          weighted=True)

    def test_identical_statistics(self, mesh3):
        rng = np.random.default_rng(2)
        a = self.make_stats(mesh3, rng.random(mesh3.n_nodes),
                            rng.random(mesh3.n_nodes))
        assert field_error(mesh3, a, a, "mean", "h1") == 0.0
        assert field_error(mesh3, a, a, "variance", "w11") == 0.0

    def test_shift_equals_norm(self, mesh3):
        rng = np.random.default_rng(3)
        base = rng.random(mesh3.n_nodes)
        v = rng.random(mesh3.n_nodes)
        a = self.make_stats(mesh3, base + v, base)
        b = self.make_stats(mesh3, base, base)
        assert np.isclose(field_error(mesh3, a, b, "mean", "h1"),
                          h1_norm(mesh3, NodalField(v, mesh3.level)),
                          rtol=1e-12)

    def test_symmetry(self, mesh3):
        rng = np.random.default_rng(4)
        a = self.make_stats(mesh3, rng.random(mesh3.n_nodes),
                            rng.random(mesh3.n_nodes))
        b = self.make_stats(mesh3, rng.random(mesh3.n_nodes),
                            rng.random(mesh3.n_nodes))
        for which in ("mean", "variance"):
            for norm in ("h1", "w11"):
                assert np.isclose(field_error(mesh3, a, b, which, norm),
                                  field_error(mesh3, b, a, which, norm),
                                  rtol=1e-14)

    def test_mesh_mismatch(self, mesh3, mesh2):
        a = self.make_stats(mesh3, np.zeros(mesh3.n_nodes),
                            np.zeros(mesh3.n_nodes))
        b = self.make_stats(mesh2, np.zeros(mesh2.n_nodes),
                            np.zeros(mesh2.n_nodes))
        with pytest.raises(MeshMismatch):
            field_error(mesh3, a, b)


class TestSlopeFit:
    def test_quadratic(self):
        eps = np.array([0.125, 0.25, 0.5, 1.0])
        assert np.isclose(slope_fit(list(zip(eps, 0.3 * eps ** 2))), 2.0)

    def test_linear(self):
        eps = np.array([0.125, 0.25, 0.5, 1.0])
        assert np.isclose(slope_fit(list(zip(eps, 7.0 * eps))), 1.0)

    def test_constant_independent(self):
        eps = np.array([0.03125, 0.125, 0.5, 1.0])
        for c in (0.03, 0.003):
            assert np.isclose(slope_fit(list(zip(eps, c * eps ** 2))), 2.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(NonPositiveData):
            slope_fit([(0.5, 1.0), (1.0, 0.0)])
        with pytest.raises(ValueError):
            slope_fit([(1.0, 1.0)])


class TestCoupledDifferences:
    def test_variance_of_triple_difference_shrinks(self, mesh2, sf64):
        vf = dq.build_vector_field_kl(mesh2, 1e-2)
        n = 20
        var_l2 = {}
        for eps in (0.5, 0.25):
            acc = RunningMoments(mesh2.n_nodes)
            for i in range(n):
                s = dq.draw_sample(sf64.n_modes, vf.n_modes, 31, i)
                ((u0, ue),), (delta,) = solve_block(
                    mesh2, vf, sf64, [s.z], [s.y], [0.0, eps],
                    with_delta=True)
                acc.update(ue.values - u0.values - eps * delta.values)
            var_l2[eps] = np.linalg.norm(acc.m2 / (n - 1))
        assert var_l2[0.5] / var_l2[0.25] >= 3.0


def test_statistics_roundtrip(mesh3):
    rng = np.random.default_rng(8)
    acc = RunningMoments(mesh3.n_nodes)
    for _ in range(10):
        acc.update(rng.random(mesh3.n_nodes))
    stats = acc.freeze(mesh3.level)
    text = statistics_to_text(stats)
    back = statistics_from_text(text)
    assert back.weight == stats.weight
    assert np.array_equal(back.mean.values, stats.mean.values)
    assert np.allclose(back.variance().values, stats.variance().values,
                       rtol=1e-15)
    assert statistics_to_text(back) == text


def test_statistics_roundtrip_quadrature_kind(mesh3):
    rule = gauss_legendre_1d(3)
    stats = quadrature_estimate(
        each(lambda z: NodalField(np.full(mesh3.n_nodes, 1.0 + z[0] ** 2),
                                  mesh3.level)), rule)
    text = statistics_to_text(stats)
    back = statistics_from_text(text)
    assert back.weighted
    assert np.array_equal(back.mean.values, stats.mean.values)
    assert np.array_equal(back.variance().values, stats.variance().values)
