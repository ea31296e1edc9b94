import math

import numpy as np
import pytest
from scipy.linalg import expm, schur
from scipy.special import ndtri

from sykteleport import layout, models, protocol, qop

REG = layout.RegisterLayout(n_message=1, n_side=3)


def _right_majorana_jw(n_side: int, j: int) -> np.ndarray:
    """Right Majorana j on its own factor by Jordan-Wigner, in register
    site order: the factor's mode n_side - 1 - j//2."""
    return qop.majorana(n_side, 2 * (n_side - 1 - j // 2) + j % 2)


def _block_majoranas_jw(n_side: int) -> tuple:
    """The left and the right Majoranas on the 2 n_side-qubit block from
    one Jordan-Wigner ordering over it: left j is block mode j//2, right j
    the mirrored block mode 2 n_side - 1 - j//2."""
    n = 2 * n_side
    left = [qop.majorana(n, j) for j in range(n)]
    right = [qop.majorana(n, 2 * (n - 1 - j // 2) + j % 2) for j in range(n)]
    return left, right


def _pcg_first_draws_reference(state: list) -> list:
    """PCG64's first draw >> 11 on the midpoint lattice, one key at a time
    in Python ints: x = S M^2 + (2 I + 1)(M^2 + M + 1) mod 2^128 for the
    state S and increment I of the 4 state words, then the XSL-RR output."""
    mult, mask64, mask128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 64) - 1, (1 << 128) - 1
    square = mult * mult & mask128
    inc = (square + mult + 1) & mask128
    out = []
    for s0, s1, s2, s3 in zip(*state):
        x = ((s0 << 64 | s1) * square + ((s2 << 64 | s3) << 1 | 1) * inc) & mask128
        rot = x >> 122
        word = ((x >> 64) ^ x) & mask64
        raw = ((word >> rot) | (word << (64 - rot))) & mask64
        out.append(((raw >> 11) + 0.5) / float(1 << 53))
    return out


def _haar_qubit_reference(seed: int, index: int) -> tuple:
    """The Haar message (alpha, beta) of one seed and index by scalar math
    calls: azimuth phi = 2 pi u_phi and cos(theta) = 2 u_cos - 1 from the
    index's two Haar substream draws."""
    phi = 2 * math.pi * models.split_uniform(seed, models.STREAM_HAAR, 2 * index)
    theta = math.acos(2 * models.split_uniform(seed, models.STREAM_HAAR, 2 * index + 1) - 1)
    return math.cos(theta / 2), math.sin(theta / 2) * complex(math.cos(phi), math.sin(phi))


class TestCouplingSampling:
    def test_table_shape(self):
        c = models.sample_syk_couplings(6, 4, 1.0, seed=0)
        assert len(c.entries) == math.comb(6, 4) == 15
        for quad in c.entries:
            assert list(quad) == sorted(quad)
            assert len(set(quad)) == 4

    def test_variance_parameter(self):
        c = models.sample_syk_couplings(6, 4, 1.0, seed=0)
        # j_scale 1, q 4, n 6: sigma^2 = 3!/6^3 = 1/36, the scale of every
        # entry against its standard normal draw
        u = models.split_uniform(0, models.STREAM_SYK, np.arange(len(c.entries)))
        scale = np.array(list(c.entries.values())) / [models._ndtri(v) for v in u.tolist()]
        assert np.abs(scale ** 2 - 1.0 / 36.0).max() <= 1e-15

    def test_disorder_statistics(self):
        # >= 10^4 draws across seeds; mean and variance within 3 sigma
        draws = []
        for seed in range(700):
            draws.extend(models.sample_syk_couplings(6, 4, 1.0, seed).entries.values())
        draws = np.asarray(draws)
        n = len(draws)
        assert n >= 10_000
        sigma2 = 1.0 / 36.0
        mean_band = 3.0 * math.sqrt(sigma2 / n)
        assert abs(draws.mean()) <= mean_band
        var_band = 3.0 * sigma2 * math.sqrt(2.0 / (n - 1))
        assert abs(draws.var(ddof=1) - sigma2) <= var_band

    def test_seed_reproducibility(self):
        a = models.sample_syk_couplings(6, 4, 1.3, seed=42)
        b = models.sample_syk_couplings(6, 4, 1.3, seed=42)
        assert a.entries == b.entries

    def test_zero_scale(self):
        c = models.sample_syk_couplings(6, 4, 0.0, seed=1)
        assert all(v == 0.0 for v in c.entries.values())

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            models.sample_syk_couplings(6, 3, 1.0, seed=0)
        with pytest.raises(ValueError):
            models.sample_syk_couplings(2, 4, 1.0, seed=0)


class TestSykHamiltonian:
    def test_zero_couplings_give_zero(self):
        c = models.sample_syk_couplings(6, 4, 0.0, seed=0)
        h = models.build_syk_hamiltonian(c, "left", REG)
        assert np.abs(h).max() == 0.0

    def test_hermitian_and_traceless(self):
        c = models.sample_syk_couplings(6, 4, 1.0, seed=3)
        for side in ("left", "right"):
            h = models.build_syk_side_matrix(c, side, 3)
            assert qop.is_hermitian(h, 1e-10)
            assert abs(np.trace(h)) <= 1e-9

    def test_identity_outside_block(self):
        c = models.sample_syk_couplings(6, 4, 1.0, seed=3)
        h_left = models.build_syk_hamiltonian(c, "left", REG)
        a = models.build_syk_side_matrix(c, "left", 3)
        assert np.abs(h_left - qop.kron_all([np.eye(2), a, np.eye(8)])).max() <= 1e-14
        h_right = models.build_syk_hamiltonian(c, "right", REG)
        b = models.build_syk_side_matrix(c, "right", 3)
        assert np.abs(h_right - qop.kron_all([np.eye(16), b])).max() <= 1e-14

    def test_left_right_spectra_match(self):
        for seed in range(5):
            c = models.sample_syk_couplings(6, 4, 1.0, seed=seed)
            ev_l = np.linalg.eigvalsh(models.build_syk_side_matrix(c, "left", 3))
            ev_r = np.linalg.eigvalsh(models.build_syk_side_matrix(c, "right", 3))
            assert np.abs(ev_l - ev_r).max() <= 1e-9

    def test_cached_majoranas_give_identical_bits(self):
        # the side matrix from the cached quartic products equals the
        # four-fold product loop over freshly made Majoranas, bit for bit:
        # the left ones, and the Jordan-Wigner right ones for the mirror
        local = {"left": layout.left_majorana_local, "right": _right_majorana_jw}
        for n_side in (2, 3, 4):
            for seed in (0, 1, 5):
                c = models.sample_syk_couplings(2 * n_side, 4, 1.0, seed=seed)
                for side, build in local.items():
                    g = [build(n_side, j) for j in range(2 * n_side)]
                    fresh = np.zeros((2 ** n_side, 2 ** n_side), dtype=complex)
                    for (i, j, k, l), val in c.entries.items():
                        fresh -= (1.0 / 24 * val) * (g[i] @ g[j] @ g[k] @ g[l])
                    got = models.build_syk_side_matrix(c, side, n_side)
                    assert got.tobytes() == fresh.tobytes()
            products = models._side_quartics(n_side)
            assert products is models._side_quartics(n_side)
            assert len(products) == math.comb(2 * n_side, 4)
            assert not any(p.flags.writeable for p in products.values())
            gammas = models._side_majoranas(n_side)
            assert not any(g.flags.writeable for g in gammas)
        with pytest.raises(ValueError, match="side"):
            models.build_syk_side_matrix(c, "middle", 4)

    def test_table_stack_equals_lone_tables(self):
        seeds = TestBatchedDraws.SEEDS
        for n_side in (3, 4):
            tables = models.sample_syk_couplings(2 * n_side, 4, 5.0, list(seeds))
            assert isinstance(tables, tuple) and len(tables) == len(seeds)
            for side in ("left", "right"):
                stack = models.build_syk_side_matrix(tables, side, n_side)
                assert stack.shape == (len(seeds),) + (2 ** n_side,) * 2
                for h, table, seed in zip(stack, tables, seeds):
                    lone = models.sample_syk_couplings(2 * n_side, 4, 5.0, seed)
                    assert table == lone
                    want = models.build_syk_side_matrix(lone, side, n_side)
                    assert h.view(float).tobytes() == want.view(float).tobytes()
        with pytest.raises(ValueError, match="side size"):
            models.build_syk_side_matrix(tables[:1] + (lone,), "left", 3)

    def test_pair_vacuum_is_shared_null_direction(self):
        # (H_L - H_R)|vac> = 0: both sides act identically on the pair vacuum
        c = models.sample_syk_couplings(6, 4, 1.0, seed=7)
        vac = layout.bell_vacuum(3)
        a = models.build_syk_side_matrix(c, "left", 3)
        b = models.build_syk_side_matrix(c, "right", 3)
        diff = (np.kron(a, np.eye(8)) - np.kron(np.eye(8), b)) @ vac
        assert np.linalg.norm(diff) <= 1e-10


class TestTfim:
    def test_unitarity(self):
        p = models.TfimParams.sample(3, seed=0)
        u = models.build_tfim_floquet(p)
        assert np.abs(u @ u.conj().T - np.eye(8)).max() <= 1e-10

    def test_two_site_closed_form(self):
        # h = 0, n = 2: both factors have commuting terms; oracle via expm
        p = models.TfimParams(n_sites=2, h_fields=(0.0, 0.0))
        u = models.build_tfim_floquet(p)
        hx = qop.kron(qop.PAULI_X, qop.I2) + qop.kron(qop.I2, qop.PAULI_X)
        hzz = qop.kron(qop.PAULI_Z, qop.PAULI_Z)
        want = expm(1j * (math.pi / 4) * hx) @ expm(1j * (math.pi / 4) * hzz)
        assert np.abs(u - want).max() <= 1e-12

    def test_seed_reproducibility(self):
        u1 = models.build_tfim_floquet(models.TfimParams.sample(3, seed=9))
        u2 = models.build_tfim_floquet(models.TfimParams.sample(3, seed=9))
        assert np.array_equal(u1, u2)

    def test_field_statistics(self):
        hs = []
        for seed in range(4000):
            hs.extend(models.TfimParams.sample(3, seed=seed).h_fields)
        hs = np.asarray(hs)
        n = len(hs)
        assert abs(hs.mean()) <= 3.0 * 0.5 / math.sqrt(n)
        assert abs(hs.var(ddof=1) - 0.25) <= 3.0 * 0.25 * math.sqrt(2.0 / (n - 1))

    def test_too_small(self):
        with pytest.raises(ValueError):
            models.build_tfim_floquet(models.TfimParams(n_sites=1, h_fields=(0.0,)))

    def test_effective_spectrum(self):
        # the Schur form is the reference: the Cayley route's quasi-energies
        # agree with its eigenphases, and its eigenvectors are orthonormal
        # and rebuild u, over the chains of seeds 0-399 and three constructed
        # unitaries: two with exactly degenerate eigenphases (one a multiple
        # of I) and one with an eigenphase gap of 1e-3 around -1, where the
        # widest-gap shift keeps I + V invertible
        rng = np.random.default_rng(3)
        w, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        degenerate = np.exp(-1j * np.array([0.3, 0.3, 0.3, -1.2, -1.2, 2.0, 2.0, 2.0]))
        straddle = np.exp(-1j * np.array([np.pi - 4e-4, -np.pi + 6e-4, -2.1, -1.0, 0.1,
                                          0.9, 1.7, 2.6]))
        stacks = [models.build_tfim_floquet(models.TfimParams.sample(n, range(400)))
                  for n in (3, 4)]
        stacks.append(np.stack([(w * phases) @ w.conj().T for phases in (degenerate, straddle)]
                               + [np.exp(0.7j) * np.eye(8)]))
        for us in stacks:
            ev, vec = models.floquet_effective_spectrum(us)
            for u, e, q in zip(us, ev, vec):
                t, _ = schur(u, output="complex")
                assert np.abs(e - np.sort(-np.angle(np.diag(t)))).max() <= 1e-14
                assert np.abs(q.conj().T @ q - np.eye(len(u))).max() <= 1e-13
                assert np.abs((q * np.exp(-1j * e)) @ q.conj().T - u).max() <= 1e-13


class TestStreamSplitting:
    def test_substreams_independent_of_order(self):
        sigma = 0.5
        fwd = models.gaussian_draw(11, models.STREAM_SYK, np.arange(10), sigma)
        rev = models.gaussian_draw(11, models.STREAM_SYK, np.arange(10)[::-1], sigma)
        assert fwd.tolist() == rev[::-1].tolist()

    def test_streams_distinct(self):
        a = models.split_uniform(0, models.STREAM_SYK, 0)
        b = models.split_uniform(0, models.STREAM_TFIM, 0)
        c = models.split_uniform(0, models.STREAM_HAAR, 0)
        assert len({a, b, c}) == 3

    def test_uniform_open_interval(self):
        for i in range(200):
            u = models.split_uniform(3, models.STREAM_SYK, i)
            assert 0.0 < u < 1.0


class TestBatchedDraws:
    SEEDS = (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63 - 1, 2 ** 64 - 1, -1, 8350510533860217964)
    STREAMS = (models.STREAM_SYK, models.STREAM_TFIM, models.STREAM_HAAR)
    INDICES = tuple(range(210)) + (2 ** 31, 2 ** 32 - 1)

    @staticmethod
    def _numpy_draw(seed, stream, index):
        ss = np.random.SeedSequence((seed & 2 ** 64 - 1, stream, index))
        raw = int(np.random.Generator(np.random.PCG64(ss)).integers(0, 2 ** 53))
        return (raw + 0.5) / float(1 << 53)

    def test_matches_numpy_generator_bit_for_bit(self):
        for seed in self.SEEDS:
            for stream in self.STREAMS:
                want = [self._numpy_draw(seed, stream, i) for i in self.INDICES]
                got = models.split_uniform(seed, stream, np.array(self.INDICES))
                assert got.tolist() == want

    def test_scheme_is_pinned(self):
        # fixed values, so a change of numpy's own chain cannot move a table
        # unnoticed
        pinned = {
            (0, 101): ("0x1.c1a51bc0b250bp-2", "0x1.b844efd3e52a0p-1", "0x1.81a4d869a4da7p-2"),
            (8350510533860217964, 303): ("0x1.2f0e891a1e8c8p-5", "0x1.d06390f2a27acp-1",
                                         "0x1.8d76245a47f6cp-1"),
            (-1, 202): ("0x1.c08198e16293ap-3", "0x1.350c4ef34f163p-2", "0x1.46f07650f6896p-3"),
        }
        for (seed, stream), want in pinned.items():
            got = models.split_uniform(seed, stream, np.array([0, 1, 2 ** 32 - 1]))
            assert got.tolist() == [float.fromhex(h) for h in want]

    def test_array_form_equals_scalar_form(self):
        for seed in (0, 2 ** 32, -1):
            idx = np.array([5, 0, 2 ** 32 - 1, 5, 17], dtype=np.uint32)
            got = models.split_uniform(seed, models.STREAM_SYK, idx)
            assert got.shape == (5,)
            assert got.tolist() == [models.split_uniform(seed, models.STREAM_SYK, int(i))
                                    for i in idx]
            assert isinstance(models.split_uniform(seed, models.STREAM_SYK, 3), float)
            g = models.gaussian_draw(seed, models.STREAM_TFIM, np.arange(7), 0.5)
            assert g.tolist() == [models.gaussian_draw(seed, models.STREAM_TFIM,
                                                       np.array([i]), 0.5)[0]
                                  for i in range(7)]
        # gaussian_draw takes only an index array
        with pytest.raises(ValueError):
            models.gaussian_draw(0, models.STREAM_TFIM, 3, 0.5)
        assert models.split_uniform(0, models.STREAM_SYK, np.arange(0)).shape == (0,)

    def test_seed_axis_equals_lone_seeds(self):
        # one row per seed, mixing seeds with and without a high word
        idx = np.array([0, 7, 2 ** 32 - 1, 3])
        for stream in self.STREAMS:
            got = models.split_uniform(list(self.SEEDS), stream, idx)
            assert got.shape == (len(self.SEEDS), len(idx))
            for row, seed in zip(got, self.SEEDS):
                assert row.tolist() == models.split_uniform(seed, stream, idx).tolist()
            got = models.split_uniform(np.array(self.SEEDS, dtype=object), stream, 5)
            assert got.tolist() == [models.split_uniform(seed, stream, 5) for seed in self.SEEDS]
            gauss = models.gaussian_draw(self.SEEDS, stream, idx, 0.7)
            for row, seed in zip(gauss, self.SEEDS):
                assert row.tolist() == models.gaussian_draw(seed, stream, idx, 0.7).tolist()
        assert models.split_uniform([], models.STREAM_SYK, idx).shape == (0, len(idx))
        assert models.split_uniform([3, 2 ** 40], models.STREAM_SYK, np.arange(0)).shape == (2, 0)
        with pytest.raises(ValueError, match="seed"):
            models.split_uniform([[0, 1]], models.STREAM_SYK, idx)

    def test_index_outside_the_pool_rejected(self):
        for bad in (-1, 2 ** 32):
            with pytest.raises(ValueError):
                models.split_uniform(0, models.STREAM_SYK, bad)
            with pytest.raises(ValueError):
                models.split_uniform(0, models.STREAM_SYK, np.array([0, bad], dtype=np.int64))
            with pytest.raises(ValueError):
                models.gaussian_draw(0, models.STREAM_SYK, np.array([bad], dtype=np.int64),
                                     1.0)
            with pytest.raises(ValueError):
                models.split_uniform(0, bad, 0)

    def test_haar_samples_match_haar_qubit(self):
        # one slice draw for seeds with and without a high 32-bit word, each
        # seed alone, and haar_qubit: all have the bits of the scalar formula
        seeds = (0, 7, 2 ** 40 + 3, 2 ** 64 - 1, 5, 2 ** 32)
        n = 37
        batched = protocol.draw_haar_samples(seeds, n)
        assert len(batched) == len(seeds)
        for seed, samples in zip(seeds, batched):
            (lone,) = protocol.draw_haar_samples([seed], n)
            want = np.array([_haar_qubit_reference(seed, i) for i in range(n)], dtype=complex)
            single = np.array([protocol.haar_qubit(seed, i) for i in range(n)])
            for got in (samples, lone, single):
                assert got.shape == (n, 2)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            for got in (samples, lone, protocol.haar_qubit(seed, n)):
                assert not got.flags.writeable
        # an index past the first n_s draws its own substream
        assert np.array_equal(protocol.haar_qubit(3, 1000).view(np.uint64),
                              np.array(_haar_qubit_reference(3, 1000)).view(np.uint64))

    def test_pcg_matches_the_python_int_loop(self):
        # random state words and every combination of the edge words 0, 1,
        # 2^63 and 2^64 - 1
        rng = np.random.default_rng(2)
        words = [rng.integers(0, 2 ** 64, 20_000, dtype=np.uint64) for _ in range(4)]
        edge = np.array([0, 1, 2 ** 63, 2 ** 64 - 1], dtype=np.uint64)
        corners = [w.ravel() for w in np.meshgrid(edge, edge, edge, edge, indexing="ij")]
        for state in (words, corners):
            want = _pcg_first_draws_reference([w.tolist() for w in state])
            got = models._pcg_first_draws(state)
            assert np.array_equal(got.view(np.uint64), np.array(want).view(np.uint64))


def _ndtri_reference(y: float) -> float:
    """The Cephes ndtri one float at a time, with Python float arithmetic
    and math.log, the reference models._ndtri is checked against."""
    if y == 0.0:
        return -math.inf
    if y == 1.0:
        return math.inf
    upper = y > 1.0 - models._NDTRI_EXPM2
    if upper:
        y = 1.0 - y
    if y > models._NDTRI_EXPM2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * models._polevl(y2, models._NDTRI_P0)
                     / models._p1evl(y2, models._NDTRI_Q0))
        return x * models._NDTRI_S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * models._polevl(z, models._NDTRI_P1) / models._p1evl(z, models._NDTRI_Q1)
    else:
        x1 = z * models._polevl(z, models._NDTRI_P2) / models._p1evl(z, models._NDTRI_Q2)
    x = x0 - x1
    return x if upper else -x


class TestInverseNormalCdf:
    def test_matches_scipy_bit_for_bit(self):
        # every branch: the central range, both tails with
        # sqrt(-2 log y) below and above 8, the branch edges at exp(-2),
        # the ends, subnormals and the split_uniform lattice edges
        edge = 0.13533528323661269189
        y = np.concatenate([
            np.linspace(0.0, 1.0, 20001),
            np.random.default_rng(5).random(20000),
            np.logspace(-323, -0.5, 20000), 1.0 - np.logspace(-16.5, -0.5, 20000),
            np.nextafter(edge, [0.0, 1.0]), np.nextafter(1.0 - edge, [0.0, 1.0]),
            [edge, 1.0 - edge, 0.5, 5e-324],
            (np.arange(64) + 0.5) / float(1 << 53), 1.0 - (np.arange(64) + 0.5) / float(1 << 53),
        ])
        got = np.array([models._ndtri(v) for v in y.tolist()])
        assert np.array_equal(got, ndtri(y))
        assert np.signbit(got).tolist() == np.signbit(ndtri(y)).tolist()

    def test_rejects_values_outside_unit_interval(self):
        for bad in (-0.1, 1.5, math.nan):
            with pytest.raises(ValueError):
                models._ndtri(bad)

    def test_array_route_matches_the_scalar_routine(self):
        # 10^5 split_uniform draws, both tails with sqrt(-2 log y) below
        # and above 8, the branch edges and the ends 0 and 1, in one call
        edge = models._NDTRI_EXPM2
        y = np.concatenate([
            models.split_uniform([3, 2 ** 40], models.STREAM_SYK,
                                 np.arange(50_000)).reshape(-1),
            np.logspace(-323, -0.5, 5000), 1.0 - np.logspace(-16.5, -0.5, 5000),
            np.nextafter(edge, [0.0, 1.0]), np.nextafter(1.0 - edge, [0.0, 1.0]),
            [0.0, 1.0, edge, 1.0 - edge, 0.5, 5e-324],
        ])
        want = np.array([_ndtri_reference(v) for v in y.tolist()])
        got = models._ndtri(y)
        assert got.shape == y.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert got[-6:-4].tolist() == [-math.inf, math.inf]
        # a 2-D array keeps its shape; a float gives a float
        assert np.array_equal(models._ndtri(y[:10].reshape(2, 5)), got[:10].reshape(2, 5))
        assert isinstance(models._ndtri(0.25), float)
        assert models._ndtri(0.25) == _ndtri_reference(0.25)

    def test_couplings_match_scipy_route(self):
        for seed in range(20):
            c = models.sample_syk_couplings(6, 4, 5.0, seed)
            sigma = 5.0 * math.sqrt(math.factorial(3) / 6 ** 3)
            scipy_route = [sigma * ndtri(models.split_uniform(seed, models.STREAM_SYK, i))
                           for i in range(len(c.entries))]
            assert np.array_equal(list(c.entries.values()), scipy_route)
            h = models.TfimParams.sample(3, seed).h_fields
            assert np.array_equal(h, [0.5 * ndtri(models.split_uniform(seed, models.STREAM_TFIM, i))
                                      for i in range(3)])


class TestMajoranaEmbeddings:
    @staticmethod
    def _layout_block(n_side: int) -> tuple:
        """The block Majoranas from the layout's one family: left j is
        L_j (x) Z^(x n_side), right j is I (x) R_j with R_j the mirror of
        L_j."""
        parity = qop.kron_all([qop.PAULI_Z] * n_side)
        local = [layout.left_majorana_local(n_side, j) for j in range(2 * n_side)]
        left = [np.kron(g, parity) for g in local]
        right = [np.kron(np.eye(2 ** n_side), layout.mirror(g, n_side)) for g in local]
        return left, right

    def test_mirror_is_the_jordan_wigner_right_majorana(self):
        for n_side in range(1, 6):
            for j in range(2 * n_side):
                got = layout.mirror(layout.left_majorana_local(n_side, j), n_side)
                assert got.flags.c_contiguous
                assert np.array_equal(got, _right_majorana_jw(n_side, j))
        # a stack mirrors matrix by matrix
        stack = np.stack([layout.left_majorana_local(3, j) for j in range(6)])
        got = layout.mirror(stack, 3)
        assert got.flags.c_contiguous
        for j in range(6):
            assert np.array_equal(got[j], _right_majorana_jw(3, j))

    def test_block_majoranas_are_the_jordan_wigner_ones(self):
        # and so are the pair occupations (1 + i gL_j gR_j)/2 built from them
        for n_side in (1, 2, 3, 4):
            left, right = _block_majoranas_jw(n_side)
            for got, want in zip(self._layout_block(n_side), (left, right)):
                for a, b in zip(got, want):
                    assert np.array_equal(a, b)
            eye = np.eye(4 ** n_side)
            for j in range(2 * n_side):
                want = 0.5 * (eye + 1j * (left[j] @ right[j]))
                assert np.array_equal(layout.pair_number_op(n_side, j), want)

    def test_block_anticommutation(self):
        left, right = self._layout_block(3)
        ops = left + right
        for a, ga in enumerate(ops):
            for b, gb in enumerate(ops):
                target = 2.0 * np.eye(64) if a == b else 0.0
                assert np.abs(ga @ gb + gb @ ga - target).max() <= 1e-12

    def test_quartic_left_is_block_local(self):
        c = models.sample_syk_couplings(6, 4, 1.0, seed=1)
        gl = _block_majoranas_jw(3)[0]
        h = np.zeros((64, 64), dtype=complex)
        for (i, j, k, l), v in c.entries.items():
            h -= (v / 24.0) * (gl[i] @ gl[j] @ gl[k] @ gl[l])
        a = models.build_syk_side_matrix(c, "left", 3)
        assert np.abs(h - np.kron(a, np.eye(8))).max() <= 1e-12

    def test_quartic_right_is_block_local(self):
        c = models.sample_syk_couplings(6, 4, 1.0, seed=1)
        gr = _block_majoranas_jw(3)[1]
        h = np.zeros((64, 64), dtype=complex)
        for (i, j, k, l), v in c.entries.items():
            h -= (v / 24.0) * (gr[i] @ gr[j] @ gr[k] @ gr[l])
        b = models.build_syk_side_matrix(c, "right", 3)
        assert np.abs(h - np.kron(np.eye(8), b)).max() <= 1e-12
