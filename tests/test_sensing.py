"""Tests for the matrix ensembles, signal generators, and noise calibration."""

import numpy as np
import pytest

from springback.errors import InvalidParameterError
from springback.sensing import (
    EnsembleKind,
    EnsembleSpec,
    SignalSpec,
    add_noise_snr,
    gen_matrix,
    gen_signal,
    gen_support,
)


def test_spec_validation():
    with pytest.raises(InvalidParameterError):
        EnsembleSpec(EnsembleKind.GAUSSIAN, m=0, n=10)
    with pytest.raises(InvalidParameterError):
        EnsembleSpec(EnsembleKind.GAUSSIAN, m=4, n=10, refinement=2)
    with pytest.raises(InvalidParameterError):
        SignalSpec(n=10, sparsity=11)
    with pytest.raises(InvalidParameterError):
        # 3 indices with pairwise gap 5 cannot fit in [0, 10)
        SignalSpec(n=10, sparsity=3, min_separation=5)
    with pytest.raises(InvalidParameterError, match="refinement factor must be >= 1"):
        EnsembleSpec(EnsembleKind.OVERSAMPLED_DCT, m=4, n=10, refinement=0)
    with pytest.raises(InvalidParameterError, match="n must be positive"):
        SignalSpec(n=0, sparsity=0)
    with pytest.raises(InvalidParameterError, match="min_separation must be nonnegative"):
        SignalSpec(n=10, sparsity=2, min_separation=-1)


def test_reproducibility():
    spec = EnsembleSpec(EnsembleKind.GAUSSIAN, m=16, n=40, seed=11)
    np.testing.assert_array_equal(gen_matrix(spec), gen_matrix(spec))
    sig = SignalSpec(n=40, sparsity=5, seed=3)
    np.testing.assert_array_equal(gen_signal(sig), gen_signal(sig))
    a, t1 = add_noise_snr(np.ones(50), 20.0, seed=7)
    b, t2 = add_noise_snr(np.ones(50), 20.0, seed=7)
    np.testing.assert_array_equal(a, b)
    assert t1 == t2


def test_gaussian_statistics():
    A = gen_matrix(EnsembleSpec(EnsembleKind.GAUSSIAN, m=100, n=200, seed=0))
    entries = A.ravel()
    assert abs(entries.mean()) < 3.0 / np.sqrt(entries.size)
    assert entries.var() == pytest.approx(1.0 / 100, rel=0.1)


def test_dct_entries_bounded():
    for F in (1, 8):
        spec = EnsembleSpec(EnsembleKind.OVERSAMPLED_DCT, m=32, n=64, refinement=F, seed=1)
        A = gen_matrix(spec)
        assert np.all(np.abs(A) <= 1.0 / np.sqrt(32) + 1e-15)


def _mutual_coherence(A):
    G = A / np.linalg.norm(A, axis=0)
    C = np.abs(G.T @ G)
    np.fill_diagonal(C, 0.0)
    return C.max()


def test_oversampled_coherence_grows_with_refinement():
    wins = 0
    for seed in range(10):
        c4 = _mutual_coherence(
            gen_matrix(EnsembleSpec(EnsembleKind.OVERSAMPLED_DCT, 32, 200, 4, seed))
        )
        c16 = _mutual_coherence(
            gen_matrix(EnsembleSpec(EnsembleKind.OVERSAMPLED_DCT, 32, 200, 16, seed))
        )
        wins += c16 > c4
    assert wins >= 8


def test_support_contract():
    assert set(gen_support(SignalSpec(n=6, sparsity=6))) == set(range(6))
    for seed in range(50):
        sup = gen_support(SignalSpec(n=10, sparsity=2, min_separation=5, seed=seed))
        assert abs(sup[1] - sup[0]) >= 5
    sup = gen_support(SignalSpec(n=100, sparsity=0))
    assert sup.size == 0


def test_support_without_separation_is_a_plain_draw():
    # at separations 0 and 1 the gap path stretches nothing: the support is
    # the sorted uniform s-subset of range(n) from the signal's stream
    for seed in range(20):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        expect = np.sort(rng.choice(40, size=7, replace=False))
        for sep in (0, 1):
            got = gen_support(SignalSpec(n=40, sparsity=7, min_separation=sep, seed=seed))
            np.testing.assert_array_equal(got, expect)
            assert got.dtype == expect.dtype


def test_support_separation_holds_broadly():
    for seed in range(200):
        spec = SignalSpec(n=64, sparsity=6, min_separation=8, seed=seed)
        sup = gen_support(spec)
        assert sup.size == 6
        assert np.diff(sup).min() >= 8
        assert sup.min() >= 0 and sup.max() < 64


def test_support_distribution_roughly_uniform():
    n, s, draws = 20, 3, 10000
    counts = np.zeros(n)
    for seed in range(draws):
        counts[gen_support(SignalSpec(n=n, sparsity=s, seed=seed))] += 1
    expect = draws * s / n
    sigma = np.sqrt(draws * (s / n) * (1 - s / n))
    assert np.all(np.abs(counts - expect) < 5 * sigma)


def test_signal_exactly_sparse():
    x = gen_signal(SignalSpec(n=50, sparsity=7, seed=5))
    assert np.count_nonzero(x) == 7
    assert np.array_equal(gen_signal(SignalSpec(n=30, sparsity=0)), np.zeros(30))


def test_snr_calibration():
    rng = np.random.default_rng(0)
    clean = rng.standard_normal(2000)
    for snr in (0.0, 10.0, 30.0):
        noisy, tau = add_noise_snr(clean, snr, seed=9)
        e = noisy - clean
        realized = 10 * np.log10(float(clean @ clean) / float(e @ e))
        assert abs(realized - snr) < 1.0
        assert tau == pytest.approx(np.linalg.norm(e))
    # equal power at 0 dB
    _, tau0 = add_noise_snr(clean, 0.0, seed=4)
    assert tau0 == pytest.approx(np.linalg.norm(clean), rel=0.2)
    # very high SNR -> vanishing noise
    _, tau_hi = add_noise_snr(clean, 300.0, seed=4)
    assert tau_hi < 1e-10
    with pytest.raises(InvalidParameterError):
        add_noise_snr(np.zeros(10), 20.0, seed=0)


@pytest.mark.parametrize("snr", [np.nan, np.inf, -np.inf, 4000.0, -4000.0])
def test_add_noise_snr_rejects_an_snr_with_no_noise_level(snr):
    # 10^(snr/10) is NaN, overflows or underflows: the noise variance would
    # be undefined, zero or infinite
    with pytest.raises(InvalidParameterError, match=f"SNR.*{snr:g}"):
        add_noise_snr(np.ones(4), snr, seed=0)


def test_add_noise_snr_keeps_its_noise_expression():
    # sigma = sqrt(P / 10^(snr/10)), bit for bit, at every preset SNR
    clean = np.random.default_rng(3).standard_normal(50)
    for snr in (10.0, 20.0, 30.0, 40.0, 45.0, 50.0):
        noisy, tau = add_noise_snr(clean, snr, seed=11)
        sigma = np.sqrt(float(clean @ clean) / 50 / 10.0 ** (snr / 10.0))
        e = np.random.default_rng(np.random.SeedSequence(11)).standard_normal(50) * sigma
        assert noisy.tobytes() == (clean + e).tobytes()
        assert tau == float(np.linalg.norm(e))
