import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from pqdslln import simulate
from pqdslln.copulas import GfmCopula, PowerSchedule
from pqdslln.errors import NumericError, ParameterError
from pqdslln.marginals import ParetoMarginal
from pqdslln.simulate import (
    DEFAULT_WINDOW,
    EXACT_DIMENSION_CAP,
    MultivariateFgmModel,
    SlnnRun,
    replicate_rng,
    run_slln,
)

# aggressive schedules rescale with a warning by design; only
# test_power_schedule_rescales_with_warning asserts on it
pytestmark = pytest.mark.filterwarnings("ignore:pairwise strengths sum")


def power_model(n, mu, nu, scale=1.0, window=None):
    return MultivariateFgmModel.from_power_schedule(n, PowerSchedule(mu, nu, scale, window))


def sample_paths(model, rng, batch, n=None):
    """``batch`` uniform paths of n steps (default the model's n) in one sampler block.

    ``rng`` is one Generator, filling the rows one after another, or one Generator per row.
    """
    rngs = [rng] * batch if isinstance(rng, np.random.Generator) else rng
    n = model.n if n is None else n
    return next(simulate._uniform_blocks(model, rngs, n, np.empty((len(rngs), n))))[1]


def count_exceedances(path, p):
    """Cumulative counts E_n = #{k <= n : X_k > k^(1/p)} along one path."""
    return np.cumsum(path > np.arange(1, len(path) + 1, dtype=float) ** (1.0 / p))


class TestModel:
    @pytest.mark.parametrize(
        "mu, nu, scale", [(math.nan, -1.2, 0.25), (-0.3, math.inf, 0.25), (-0.3, -1.2, math.nan), (-0.3, -1.2, math.inf)]
    )
    def test_power_schedule_rejects_non_finite(self, mu, nu, scale):
        with pytest.raises(ParameterError):
            power_model(64, mu=mu, nu=nu, scale=scale)

    @pytest.mark.parametrize("mu, nu", [(200.0, 0.5), (1e8, 0.5), (0.5, 200.0), (0.5, 1e8)])
    @pytest.mark.parametrize("window", [None, 8])
    def test_power_schedule_rejects_overflowing_strengths(self, mu, nu, window):
        with pytest.raises(ParameterError, match="overflow"):
            power_model(1000, mu=mu, nu=nu, window=window)

    def test_power_schedule_rescales_with_warning(self):
        with pytest.warns(UserWarning, match="rescaling"):
            model = power_model(64, mu=0.0, nu=0.0, scale=1.0)
        assert model.theta_sum == pytest.approx(1.0)
        assert model.rescale_factor == pytest.approx(1.0 / (64 * 63 / 2))
        assert model.schedule.theta(1, 2) == pytest.approx(model.rescale_factor)

    def test_power_schedule_window_auto(self):
        model = power_model(
            EXACT_DIMENSION_CAP + 1, mu=-0.3, nu=-1.2, scale=0.25
        )
        assert model.schedule.window == DEFAULT_WINDOW
        small = power_model(256, mu=-0.3, nu=-1.2, scale=0.25)
        assert small.schedule.window is None

    def test_power_theta_sum_matches_direct(self):
        model = power_model(40, mu=-0.3, nu=-1.2, scale=0.05, window=8)
        direct = math.fsum(
            model.schedule.theta(k, j) for j in range(2, 41) for k in range(max(1, j - 8), j)
        )
        assert model.theta_sum == pytest.approx(direct, rel=1e-12)


class TestSampler:
    def test_zero_dependence_equals_bulk_uniforms(self):
        model = power_model(16, 0.0, 0.0, 0.0)
        u_model = sample_paths(model, replicate_rng(5, 0), 4)
        u_plain = replicate_rng(5, 0).random((4, 16))
        np.testing.assert_array_equal(u_model, u_plain)

    def test_pairwise_copula_matches_bivariate_family(self, rng):
        model = power_model(2, 0.0, 0.0, 1.0)
        u = sample_paths(model, rng, 10**5)
        copula = GfmCopula(theta=1.0, r=1.0, s=1.0)
        target = copula.cdf(0.5, 0.5)
        hit = float(np.mean((u[:, 0] <= 0.5) & (u[:, 1] <= 0.5)))
        se = math.sqrt(target * (1.0 - target) / u.shape[0])
        assert abs(hit - target) <= 3.0 * se

    def test_three_coordinate_pairwise_margins(self, rng):
        theta = 1.0 / 3.0
        model = power_model(3, 0.0, 0.0, theta)
        u = sample_paths(model, rng, 10**5)
        copula = GfmCopula(theta=theta, r=1.0, s=1.0)
        grid = (0.25, 0.5, 0.75)
        n = u.shape[0]
        for a, b in ((0, 1), (0, 2), (1, 2)):
            for ua in grid:
                for vb in grid:
                    target = copula.cdf(ua, vb)
                    hit = float(np.mean((u[:, a] <= ua) & (u[:, b] <= vb)))
                    se = math.sqrt(target * (1.0 - target) / n)
                    assert abs(hit - target) <= 3.0 * se

    def test_empirical_pqd_on_grid(self, rng):
        model = power_model(2, 0.0, 0.0, 1.0)
        u = sample_paths(model, rng, 10**5)
        n = u.shape[0]
        for ua in (1 / 6, 2 / 6, 3 / 6, 4 / 6, 5 / 6):
            for vb in (1 / 6, 2 / 6, 3 / 6, 4 / 6, 5 / 6):
                emp = float(np.mean((u[:, 0] <= ua) & (u[:, 1] <= vb)))
                se = math.sqrt(max(emp * (1.0 - emp), 1e-12) / n)
                assert emp - ua * vb >= -3.0 * se

    def test_margin_fidelity_ks(self, rng):
        m = ParetoMarginal(2.0)
        model = power_model(3, 0.0, 0.0, 0.5, window=1)  # pairs (1, 2), (2, 3)
        u = sample_paths(model, rng, 10**5)
        threshold = math.sqrt(-math.log(0.001 / 2.0) / 2.0) / math.sqrt(u.shape[0])
        for col in range(3):
            x = m.quantile(u[:, col])
            stat = scipy.stats.kstest(x, m.cdf).statistic
            assert stat < threshold

    def test_windowed_sampling_matches_unwindowed_when_window_covers_all(self):
        kwargs = dict(n=48, mu=-0.3, nu=-1.2, scale=0.25)
        full = power_model(**kwargs)
        windowed = power_model(**kwargs, window=47)
        a = sample_paths(full, replicate_rng(9, 0), 8)
        b = sample_paths(windowed, replicate_rng(9, 0), 8)
        np.testing.assert_allclose(a, b, atol=1e-15)

    def test_quantile_of_paths_support(self, rng):
        model = power_model(32, mu=-0.3, nu=-1.2, scale=0.25)
        x = ParetoMarginal(2.0).quantile(sample_paths(model, rng, 1))
        assert x.shape == (1, 32)
        assert np.all(x >= 1.0)

    def test_row_generators_match_single_row_draws(self):
        model = power_model(48, mu=-0.3, nu=-1.2, scale=0.25)
        rows = sample_paths(model, [replicate_rng(9, rep) for rep in range(3)], 3)
        for rep in range(3):
            np.testing.assert_array_equal(rows[rep], sample_paths(model, replicate_rng(9, rep), 1)[0])

    def test_inadmissible_model_raises(self):
        # every pair at strength 1: the strengths sum far past the budget of 1
        model = MultivariateFgmModel(n=64, schedule=PowerSchedule(0.0, 0.0), theta_sum=1.0, rescale_factor=1.0)
        with pytest.raises(NumericError):
            sample_paths(model, replicate_rng(3, 0), 4)

    @pytest.mark.parametrize(
        "n, scale, window, tiny_slopes",
        [(256, 1e-13, None, True), (512, 1e-12, 16, True), (256, 0.25, None, False), (512, 0.25, 16, False)],
        ids=["exact-tiny", "window-tiny", "exact-golden", "window-golden"],
    )
    def test_each_step_is_the_root_to_4_ulp(self, n, scale, window, tiny_slopes):
        # recompute every step in 50 digits from the row's raw uniforms and its own earlier outputs:
        # D, A_m, the clipped slope a and the root of u (1 + a (1 - u)) = w; tiny scales put many
        # slopes in [1e-15, 1e-14], where u = w alone would be tens of ulp off
        model = power_model(n, -0.3, -1.2, scale, window)
        rows = 4
        rngs = [replicate_rng(5, rep) for rep in range(rows)]
        blocks = [u.copy() for _, u in simulate._uniform_blocks(model, rngs, n, np.empty((rows, 100)))]
        paths = np.concatenate(blocks, axis=1)
        tiny = 0
        with mpmath.workdps(50):
            rescaled = mpmath.mpf(model.schedule.scale)
            for rep, path in enumerate(paths.tolist()):
                raw = replicate_rng(5, rep).random(n).tolist()
                d, inner, terms = mpmath.mpf(1), mpmath.mpf(0), []
                for m, (w, u) in enumerate(zip(raw, path), start=1):
                    a_m = rescaled * mpmath.mpf(m) ** model.schedule.nu * inner
                    a = min(max(a_m / d, -1), 1)
                    tiny += 1e-15 <= abs(a) <= 1e-14
                    root = 2 * w / (1 + a + mpmath.sqrt((1 + a) ** 2 - 4 * a * w))
                    assert abs(u - root) <= 4 * math.ulp(float(root)), (rep, m, float(a))
                    eta = 1 - 2 * mpmath.mpf(u)
                    d += eta * a_m
                    terms.append(mpmath.mpf(m) ** model.schedule.mu * eta)
                    inner += terms[-1]
                    if window is not None:
                        inner -= terms[-1 - window] if len(terms) > window else 0
        assert tiny >= 20 or not tiny_slopes, tiny


class TestRoutes:
    """Each row of a batch, sampled in blocks of any width, is its single-row, whole-width path.

    The sampler inverts one row at a time, so neither the rows sampled with a row nor the block
    widths may change its bytes, or whether the run raises.
    """

    MODELS = {
        "exact": lambda: power_model(512, mu=-0.3, nu=-1.2, scale=0.25),
        "window": lambda: power_model(512, mu=-0.3, nu=-1.2, scale=0.25, window=16),
    }

    @staticmethod
    def path(model, reps, width):
        """The paths of replicates ``reps``, sampled together in blocks of ``width`` columns."""
        rngs = [replicate_rng(4, rep) for rep in reps]
        buf = np.empty((len(rngs), min(width, model.n)))
        return np.hstack([u.copy() for _, u in simulate._uniform_blocks(model, rngs, model.n, buf)])

    def alone(self, model, rows):
        """The paths of replicates 0..rows-1, each sampled on its own in one whole-width block."""
        return np.vstack([self.path(model, [rep], model.n) for rep in range(rows)])

    # blocks of 1 or 37 columns end inside the 16-step window; 512 columns are the whole path
    @pytest.mark.parametrize("width", [1, 37, 512])
    @pytest.mark.parametrize("rows", [1, 2, 32, 57, 64])
    @pytest.mark.parametrize("case", ["exact", "window"])
    def test_routes_agree_bit_for_bit(self, case, rows, width):
        model = self.MODELS[case]()
        batch = self.path(model, range(rows), width)
        assert batch.shape == (rows, 512) and batch.tobytes() == self.alone(model, rows).tobytes()

    @given(
        schedule=st.tuples(st.floats(-3.0, 2.0), st.floats(-3.0, 2.0), st.floats(0.0, 4.0)),
        n=st.integers(1, 300),
        data=st.data(),
    )
    def test_routes_agree_on_drawn_schedules(self, schedule, n, data):
        # rescaled to the budget where the strengths exceed it
        window = data.draw(st.none() | st.integers(1, n), label="window")
        rows = data.draw(st.integers(1, 64), label="rows")
        group = data.draw(st.integers(1, rows * n), label="group elements")
        width = max(1, group // rows)  # as run_slln cuts a dependent run's blocks from _GROUP_ELEMENTS
        model = power_model(n, *schedule, window=window)
        outcomes = []
        # a batch raises when any of its rows breaks an invariant, and that row raises on its own
        for sample in (lambda: self.path(model, range(rows), width), lambda: self.alone(model, rows)):
            try:
                outcomes.append(sample().tobytes())
            except NumericError:
                outcomes.append("raises")
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize(
        "model",
        [
            MultivariateFgmModel(n=64, schedule=PowerSchedule(0.0, 0.0), theta_sum=1.0, rescale_factor=1.0),
            # PowerSchedule refuses a nan scale; the sampler reads only these four fields
            MultivariateFgmModel(
                n=64, schedule=SimpleNamespace(mu=-0.3, nu=-1.2, scale=math.nan, window=None), theta_sum=0.5, rescale_factor=1.0
            ),
        ],
        ids=["inadmissible", "nan-scale"],
    )
    def test_routes_raise_the_same_error(self, model):
        for rows in (4, 64):
            with pytest.raises(NumericError) as info:
                sample_paths(model, replicate_rng(3, 0), rows)
            assert str(info.value) == "conditional slope left [-1, 1] (internal normalizer bug)"

    def test_raise_leaves_the_rest_of_the_block_raw(self):
        # every pair at strength 1: the slope leaves [-1, 1] at some column k of the 64
        schedule, raw = PowerSchedule(0.0, 0.0), replicate_rng(3, 0).random((1, 64))

        def invert(width):
            block = raw[:, :width].copy()
            simulate._invert_rows(schedule, block, 0, [[1.0, 0.0, None]])
            return block

        def breaks(width):
            try:
                invert(width)
            except NumericError:
                return True
            return False

        k = next(width for width in range(1, 65) if breaks(width)) - 1  # the column where the slope breaks
        assert 1 < k < 63
        block = raw.copy()
        with pytest.raises(NumericError, match="slope left"):
            simulate._invert_rows(schedule, block, 0, [[1.0, 0.0, None]])
        assert block[0, k:].tobytes() == raw[0, k:].tobytes()
        assert block[0, :k].tobytes() == invert(k)[0].tobytes()


class TestCountExceedances:
    def test_constant_path_at_support_min(self):
        path = np.ones(50)
        e = count_exceedances(path, 1.0)
        assert np.all(e == 0)  # X_k = 1 is never strictly above k >= 1

    def test_cumulative_and_monotone(self):
        path = np.array([5.0, 1.0, 10.0, 1.0])
        e = count_exceedances(path, 1.0)
        np.testing.assert_array_equal(e, [1, 1, 2, 2])
        assert np.all(np.diff(e) >= 0)

    @pytest.mark.parametrize("alpha,n,replicates", [(2.0, 10**4, 1000), (1.0, 10**4, 1000)])
    def test_expected_counts(self, alpha, n, replicates):
        m = ParetoMarginal(alpha)
        expected = math.fsum(np.arange(1, n + 1, dtype=float) ** (-alpha))
        finals = np.empty(replicates)
        for rep in range(replicates):
            rng = replicate_rng(123, rep)
            x = m.quantile(rng.random(n))
            finals[rep] = count_exceedances(x, 1.0)[-1]
        se = float(np.std(finals, ddof=1)) / math.sqrt(replicates)
        assert abs(float(np.mean(finals)) - expected) <= 3.0 * se


class TestPieces:
    """An independent run is cut into pieces of replicates that threads take in turn: the same bytes."""

    MODELS = {
        "independent": lambda: None,
        "exact": lambda: power_model(512, mu=-0.3, nu=-1.2, scale=0.25),
        "window": lambda: power_model(512, mu=-0.3, nu=-1.2, scale=0.25, window=16),
    }

    @staticmethod
    def run(replicates, model=None):
        return SlnnRun(
            p=1.2, marginal=ParetoMarginal(2.0), model=model, n_max=512, replicates=replicates, seed=19, c=2.0
        )

    @staticmethod
    def force_threads(monkeypatch, count):
        monkeypatch.setattr(simulate, "_thread_count", lambda model, replicates, n: min(count, replicates))

    # blocks of 1 column, or of 3 to 55 (cap 111 over the rows in flight and their spare rows), end
    # between checkpoints and inside the window;
    # 1 piece per thread cuts 33 replicates 11/11/11 over 3 threads, 4 per thread cuts them 2/2/.../1
    @pytest.mark.parametrize("cap", [1, 111])
    @pytest.mark.parametrize("replicates", [1, 2, 3, 33])
    @pytest.mark.parametrize("case", ["independent", "exact", "window"])
    def test_rows_do_not_depend_on_the_pieces(self, case, replicates, cap, monkeypatch):
        monkeypatch.setattr(simulate, "_GROUP_ELEMENTS", cap)
        run = self.run(replicates, self.MODELS[case]())
        reports = []
        for count, per_thread in ((1, 4), (2, 1), (2, 4), (3, 1), (3, 4)):
            self.force_threads(monkeypatch, count)
            monkeypatch.setattr(simulate, "_PIECES_PER_THREAD", per_thread)
            reports.append(run_slln(run))
        for report in reports[1:]:
            assert report.m_values.tobytes() == reports[0].m_values.tobytes()
            assert report.exceedances.tobytes() == reports[0].exceedances.tobytes()

    def test_thread_count_follows_cpus_dependence_and_size(self):
        cpus = len(os.sched_getaffinity(0))
        assert simulate._thread_count(None, 32, 2**17) == min(cpus, 32)
        assert simulate._thread_count(None, 1, 2**18) == 1
        assert simulate._thread_count(power_model(2**17, 0.0, 0.0, 0.0), 32, 2**17) == min(cpus, 32)  # a zero schedule
        assert simulate._thread_count(self.MODELS["exact"](), 32, 2**17) == 1
        assert simulate._thread_count(None, 2, 2**17 - 1) == 1  # below one block of 2^18 uniforms

    def test_pieces_run_on_threads_that_end_with_the_run(self, monkeypatch):
        self.force_threads(monkeypatch, 3)
        real, threads = simulate._sample_piece, set()
        together = threading.Barrier(3, timeout=30)  # breaks unless three pieces run at once

        def traced(*args):
            threads.add(threading.current_thread())
            together.wait()
            real(*args)

        monkeypatch.setattr(simulate, "_sample_piece", traced)
        baseline = threading.active_count()
        run_slln(self.run(6))  # six one-replicate pieces, two rounds of the barrier
        assert len(threads) == 3
        assert threading.active_count() == baseline

    def test_a_stalled_thread_holds_up_one_piece_only(self, monkeypatch):
        self.force_threads(monkeypatch, 2)
        real, owners, sampled = simulate._sample_piece, {}, []
        others_done = threading.Event()

        def traced(run, rows, *args):
            owners[rows.start] = threading.current_thread()
            if rows.start == 0:  # whichever thread takes the first piece stalls on it
                assert others_done.wait(timeout=30)  # until the other seven pieces are sampled
            real(run, rows, *args)
            sampled.append(rows.start)
            if len(sampled) == 7:
                others_done.set()

        monkeypatch.setattr(simulate, "_sample_piece", traced)
        report = run_slln(self.run(8))  # 4 pieces per thread: eight one-replicate pieces
        assert sorted(owners) == list(range(8))
        assert list(owners.values()).count(owners[0]) == 1  # the stalled thread took its first piece only
        monkeypatch.setattr(simulate, "_sample_piece", real)
        assert report.m_values.tobytes() == run_slln(self.run(8)).m_values.tobytes()

    def test_every_piece_is_sampled_once_by_more_threads_than_cpus(self, monkeypatch):
        self.force_threads(monkeypatch, 8)
        real, sampled = simulate._sample_piece, []

        def traced(run, rows, *args):
            sampled.extend(rows)
            real(run, rows, *args)

        monkeypatch.setattr(simulate, "_sample_piece", traced)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
        try:
            reports = [run_slln(self.run(64)) for _ in range(3)]  # 32 two-replicate pieces per run
        finally:
            sys.setswitchinterval(interval)
        assert sorted(sampled) == sorted(list(range(64)) * 3)
        monkeypatch.setattr(simulate, "_thread_count", lambda model, replicates, n: 1)
        whole = run_slln(self.run(64))
        for report in reports:
            assert report.m_values.tobytes() == whole.m_values.tobytes()
            assert report.exceedances.tobytes() == whole.exceedances.tobytes()

    # six one-replicate pieces go to whichever of three threads is free: the first and last piece fail
    @pytest.mark.parametrize("replicate", [0, 5], ids=["first-piece", "last-piece"])
    def test_error_in_a_piece_reaches_the_caller(self, replicate, monkeypatch):
        real = simulate.replicate_rng

        def refusing(seed, rep):
            if rep == replicate:
                raise NumericError(f"stream {rep} refused")
            return real(seed, rep)

        self.force_threads(monkeypatch, 3)
        monkeypatch.setattr(simulate, "replicate_rng", refusing)
        baseline = threading.active_count()
        with pytest.raises(NumericError, match=f"^stream {replicate} refused$"):
            run_slln(self.run(6))
        assert threading.active_count() == baseline

    def test_pieces_borrow_the_callers_blocks(self, monkeypatch):
        # 4 pieces per thread: eight one-replicate pieces share the 2 blocks the caller allocated
        self.force_threads(monkeypatch, 2)
        real, empty = simulate._sample_piece, np.empty
        blocks, allocating = set(), set()

        def traced(run, rows, buf, hit_buf, *args):
            blocks.add((id(buf), id(hit_buf)))
            real(run, rows, buf, hit_buf, *args)

        def recording_empty(*args, **kwargs):
            out = empty(*args, **kwargs)
            if out.size >= 512:  # a block row of the 512-step path, or more: not np.ones(rows) and the like
                allocating.add(threading.get_ident())
            return out

        monkeypatch.setattr(simulate, "_sample_piece", traced)
        monkeypatch.setattr(np, "empty", recording_empty)
        report = run_slln(self.run(8))
        monkeypatch.undo()
        assert 1 <= len(blocks) <= 2
        assert allocating == {threading.get_ident()}  # no pool thread allocates a block
        assert report.m_values.tobytes() == run_slln(self.run(8)).m_values.tobytes()

    def test_one_thread_run_starts_no_pool(self, tmp_path):
        # a dependent run, and an independent one below a block, is one piece on the caller's thread
        src = Path(simulate.__file__).parents[1]
        argv = ["simulate", "slln", "--p", "1.2", "--alpha", "2", "--n-max", "512", "--replicates", "8", "--c", "2"]
        code = (
            "import sys, pqdslln.cli\n"
            "for spec in ('power:-0.3,-1.2,0.25', 'zero'):\n"
            f"    assert pqdslln.cli.main([*{argv!r}, '--theta-spec', spec, '--outdir', sys.argv[1] + spec]) == 0\n"
            "print(sorted({'concurrent.futures', 'queue'} & set(sys.modules)))"
        )
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-c", code, f"{tmp_path}/"], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"

    def test_cli_import_does_not_load_concurrent_futures(self):
        src = Path(simulate.__file__).parents[1]
        code = "import sys, pqdslln.cli; print('concurrent.futures' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


class TestRunSlln:
    def run(self, **overrides):
        base = dict(
            p=1.0,
            marginal=ParetoMarginal(2.0),
            model=None,
            n_max=2**13,
            replicates=16,
            seed=77,
            c=2.0,
        )
        base.update(overrides)
        return SlnnRun(**base)

    def test_checkpoints_dyadic(self):
        run = self.run(n_max=5000)
        assert run.checkpoints() == (128, 256, 512, 1024, 2048, 4096)

    @staticmethod
    def reference_rows(run):
        """Each replicate sampled on its own, as one row from its own stream."""
        cps = run.checkpoints()
        idx = np.array(cps) - 1
        ns = np.array(cps, dtype=float)
        m_rows, e_rows = [], []
        for rep in range(run.replicates):
            u = sample_paths(run.model, replicate_rng(run.seed, rep), 1, cps[-1])[0]
            x = run.marginal.quantile(u)
            m_rows.append((np.cumsum(x)[idx] - ns * run.centering()) / ns ** (1.0 / run.p))
            e_rows.append(count_exceedances(x, run.p)[idx])
        return np.array(m_rows), np.array(e_rows)

    @pytest.mark.parametrize("case", ["independent", "exact", "window"])
    def test_rows_do_not_depend_on_grouping(self, case):
        run = {
            # 2^17 steps: 3 replicates share two blocks of 2^18 // 4 columns, the spare row taking a quarter
            "independent": lambda: self.run(n_max=2**17, replicates=3),
            "exact": lambda: self.run(
                p=1.2, n_max=2**10, replicates=4,
                model=power_model(2**10, mu=-0.3, nu=-1.2, scale=0.25),
            ),
            "window": lambda: self.run(
                p=1.2, n_max=2**11, replicates=3,
                model=power_model(2**11, mu=-0.3, nu=-1.2, scale=0.25, window=16),
            ),
        }[case]()
        report = run_slln(run)
        m_rows, e_rows = self.reference_rows(run)
        np.testing.assert_array_equal(report.m_values, m_rows)
        np.testing.assert_array_equal(report.exceedances, e_rows)

    def test_more_replicates_keep_leading_rows(self, monkeypatch):
        # on one CPU a run of 3 splits its path into blocks at column 65536, a run of 4 at column 52428
        monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: {0})
        widths = []
        sample_piece = simulate._sample_piece

        def recording(run, rows, buf, *args):
            widths.append(buf.shape[1])
            sample_piece(run, rows, buf, *args)

        monkeypatch.setattr(simulate, "_sample_piece", recording)
        fewer = run_slln(self.run(n_max=2**17, replicates=3))
        more = run_slln(self.run(n_max=2**17, replicates=4))
        assert widths == [65536, 52428]
        np.testing.assert_array_equal(more.m_values[:3], fewer.m_values)
        np.testing.assert_array_equal(more.exceedances[:3], fewer.exceedances)

    @pytest.mark.parametrize("cap", [1, 3 * 37])
    @pytest.mark.parametrize("case", ["independent", "exact", "window"])
    def test_rows_match_across_block_boundaries(self, case, cap, monkeypatch):
        # blocks of 1 or 27 columns (cap 111 over 3 rows and the spare row) end between checkpoints
        # and inside the 16-step window
        monkeypatch.setattr(simulate, "_GROUP_ELEMENTS", cap)
        model = {
            "independent": None,
            "exact": power_model(512, mu=-0.3, nu=-1.2, scale=0.25),
            "window": power_model(512, mu=-0.3, nu=-1.2, scale=0.25, window=16),
        }[case]
        run = self.run(p=1.2, n_max=512, replicates=3, model=model)
        report = run_slln(run)
        m_rows, e_rows = self.reference_rows(run)
        np.testing.assert_array_equal(report.m_values, m_rows)
        np.testing.assert_array_equal(report.exceedances, e_rows)

    @pytest.mark.parametrize(
        "n_max,replicates,dependent,group,limit",
        [(2**17, 32, False, 1 << 18, 4 * 2**20), (2**11, 64, True, 1 << 12, 2**18)],
        ids=["independent", "exact"],
    )
    def test_memory_stays_below_the_path(self, n_max, replicates, dependent, group, limit, monkeypatch):
        # the whole path would take 32 MB (1 MB dependent); the blocks of uniforms, inverted in
        # place, and the spare row of running sums each has take 2 MB (32 kB); the dependent run
        # steps in Python floats, whose every allocation tracemalloc traces, hence its small path
        monkeypatch.setattr(simulate, "_GROUP_ELEMENTS", group)
        model = power_model(n_max, mu=-0.3, nu=-1.2, scale=0.25) if dependent else None
        run = self.run(p=1.2, n_max=n_max, replicates=replicates, model=model)
        run_slln(self.run(n_max=128, replicates=1))  # what the first call imports stays out of the measure
        tracemalloc.start()
        try:
            run_slln(run)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit

    @pytest.mark.parametrize("case", ["independent", "exact", "window"])
    def test_running_sums_never_overwrite_their_input(self, case, monkeypatch):
        # numpy holds the GIL for a 1-D accumulate whose output is its input, so the sampling
        # threads would queue for it; blocks of 27 columns over two threads, each call checked
        overlaps = []

        def checked(accumulate):
            def call(a, *args, **kwargs):
                out = kwargs.get("out", args[2] if len(args) > 2 else None)  # (axis, dtype, out)
                out = out[0] if isinstance(out, tuple) else out
                overlaps.append(out is not None and np.shares_memory(a, out))
                return accumulate(a, *args, **kwargs)

            return call

        class Spy:
            def __init__(self, target, **replaced):
                self.__dict__.update(replaced)
                self.target = target

            def __getattr__(self, name):
                return getattr(self.target, name)

        spy = Spy(np, cumsum=checked(np.cumsum), add=Spy(np.add, accumulate=checked(np.add.accumulate)))
        monkeypatch.setattr(simulate, "np", spy)
        monkeypatch.setattr(simulate, "_GROUP_ELEMENTS", 111)
        monkeypatch.setattr(simulate, "_thread_count", lambda model, replicates, n: min(2, replicates))
        model = {
            "independent": None,
            "exact": power_model(512, mu=-0.3, nu=-1.2, scale=0.25),
            "window": power_model(512, mu=-0.3, nu=-1.2, scale=0.25, window=16),
        }[case]
        run_slln(self.run(p=1.2, n_max=512, replicates=3, model=model))
        assert len(overlaps) >= 3 * 512 // 27 and not any(overlaps)

    def test_scalar_route_memory_stays_below_the_path(self, monkeypatch):
        # one row: blocks of 2^12 steps; its 2^14 steps as Python floats would take 512 kB
        monkeypatch.setattr(simulate, "_GROUP_ELEMENTS", 1 << 12)
        model = power_model(2**14, mu=-0.3, nu=-1.2, scale=0.25)
        run = self.run(p=1.2, n_max=2**14, replicates=1, model=model)
        run_slln(run)  # what the first call imports stays out of the measure
        tracemalloc.start()
        try:
            run_slln(run)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**19

    def test_inadmissible_model_raises(self):
        model = MultivariateFgmModel(n=128, schedule=PowerSchedule(0.0, 0.0), theta_sum=1.0, rescale_factor=1.0)
        with pytest.raises(NumericError):
            run_slln(self.run(n_max=128, replicates=3, model=model))

    def test_convergent_regime(self):
        report = run_slln(self.run(n_max=2**15, replicates=16))
        med = np.median(np.abs(report.m_values), axis=0)
        assert med[-1] < med[list(report.checkpoints).index(1024)]
        assert np.max(np.abs(report.m_values), axis=0)[-1] < 0.5

    def test_divergent_regime(self):
        run = self.run(marginal=ParetoMarginal(1.0), c=0.0, n_max=2**13)
        report = run_slln(run)
        assert np.max(np.abs(report.m_values[:, -3:])) > 1.0  # the trailing checkpoints

    def test_centering_requires_finite_mean(self):
        with pytest.raises(ParameterError):
            self.run(marginal=ParetoMarginal(1.0), c=None).centering()

    def test_default_centering_is_mean(self):
        assert self.run(c=None).centering() == pytest.approx(2.0)

    def test_exceedances_nondecreasing(self):
        report = run_slln(self.run(replicates=4))
        assert np.all(np.diff(report.exceedances, axis=1) >= 0)

    def test_dependent_run_metadata_and_behavior(self):
        model = power_model(2**13, mu=-0.3, nu=-1.2, scale=0.25)
        run = self.run(p=1.2, model=model, replicates=4)
        report = run_slln(run)
        assert report.metadata["dependence"] == "pairwise-pqd"
        assert report.metadata["window"] == DEFAULT_WINDOW
        assert report.metadata["rescale_factor"] <= 1.0
        med = np.median(np.abs(report.m_values), axis=0)
        assert med[-1] < med[0]

    def test_exceedance_mean_matches_event_probs_under_dependence(self):
        # dependence changes joint behavior, not expectations
        n = 2**11
        model = power_model(n, mu=-0.3, nu=-1.2, scale=0.25)
        rng = replicate_rng(2024, 0)
        u = sample_paths(model, rng, 400)
        m = ParetoMarginal(2.0)
        finals = np.empty(u.shape[0])
        for i in range(u.shape[0]):
            finals[i] = count_exceedances(m.quantile(u[i]), 1.0)[-1]
        expected = math.fsum(np.arange(1, n + 1, dtype=float) ** -2.0)
        se = float(np.std(finals, ddof=1)) / math.sqrt(finals.size)
        assert abs(float(np.mean(finals)) - expected) <= 3.0 * se

    def test_model_too_small_rejected(self):
        model = power_model(256, mu=-0.3, nu=-1.2, scale=0.25)
        with pytest.raises(ParameterError):
            run_slln(self.run(model=model))
