"""Stationary Gaussian noise synthesis with a prescribed spectral density.

The colored random force driving the evolution equation is generated by
circulant embedding (Wood & Chan 1994; Dietrich & Newsam 1997).  The
target is a one-sided spectral density S(omega); sampled at step h over
n_steps = L points, the circulant covariance of order m = 2L has the
eigenvalues lambda_k = S(omega_k)/h on omega_k = pi k / (L h), k = 0..L,
mirrored for k > L, and zero beyond the spectrum's last frequency.  Each
path is synthesized Hermitian-symmetrically: xi_0 and xi_L are real
N(0, 1), and xi_k = (a_k + i b_k)/sqrt(2) for 0 < k < L, so one real
inverse FFT of sqrt(lambda_k m) xi_k yields a path whose covariance is
that circulant's, exactly, in distribution.  Only the normals that meet a
nonzero eigenvalue are drawn: with K the last k whose lambda_k > 0, a path
draws 2K + 1 normals (a_1, b_1, ..., a_K, b_K and xi_0), or all m when
K = L (b_L then stands for xi_0 and a_L is xi_L).  Small negative
eigenvalues (within EIGENVALUE_CLAMP of the largest) are clamped to zero;
larger ones raise a spectral-positivity error naming the worst eigenvalue.
Paths are synthesized in blocks of _SYNTHESIS_BLOCK through one spectrum
buffer and one inverse-FFT output buffer per call: every block rewrites the
slots its normals meet, and the slots past them stay zero from the start.

Reproducibility: every path is drawn from its own counter-based substream,
the PCG64 generator of
``SeedSequence(master_seed, spawn_key=(LANES[lane], path_index))``, so the
same request always reproduces the same ensemble bit for bit, any subset of
paths can be regenerated in isolation, and parallel generation cannot
reorder results.  ``path_streams(master_seed, lane, start, stop)`` yields
those generators for a range of paths: one SeedSequence hashes the seed and
lane words, and its hash is continued over all the path indices as one
array, so a stream costs a few microseconds, not a SeedSequence of its own.
``LANES`` is the one table of lane numbers: each kind of draw in the
package (colored force, Wiener increments, white returns, spectral-line
phases) has its own lane, so no two kinds share a stream even under one
master seed.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError, SpectralPositivityError, check_count, check_positive, check_seed
from .series import PathEnsemble, SpectralDensity

EIGENVALUE_CLAMP = 1e-8  # relative to the largest circulant eigenvalue
LANES = {"colored-force": 0, "wiener": 1, "white-return": 2, "spectral-line": 3}
# paths per batched inverse FFT: bounds the transient spectrum and output
# buffers to a constant beside the n_paths x n_steps result
_SYNTHESIS_BLOCK = 64


# numpy's SeedSequence hash, continued from the pool of four uint32 words
# it holds after the seed and lane words so that the last entropy word, the
# path index, is hashed for a range of paths as one array
_MASK32 = 0xFFFFFFFF
_MASK128 = 2**128 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# hash constants: hashmix call j xors INIT_A MULT_A^j and multiplies by
# INIT_A MULT_A^(j+1); the seed and lane words took calls 0-19, the path
# index takes 20-23.  generate_state's output word j does the same with B.
_HASH_A = np.array(
    [0x43B0D7E5 * pow(0x931E8875, j, 2**32) & _MASK32 for j in range(20, 25)], np.uint64
)
_HASH_B = np.array([0x8B51F9DD * pow(0x58F38DED, j, 2**32) & _MASK32 for j in range(9)], np.uint64)


def _hashmix(value, xor, mul):
    value = ((value ^ xor) * mul) & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    value = (_MIX_L * x - _MIX_R * y) & _MASK32
    return value ^ (value >> 16)


def path_streams(seed, lane, start, stop):
    """Random generators of paths ``start`` to ``stop - 1`` on the named
    seed lane, in order.  Path i's generator is
    ``default_rng(SeedSequence(seed, spawn_key=(LANES[lane], i)))`` bit for
    bit; the seed and lane words are hashed once, and the path indices
    together as one array.  One generator is reseeded for every path, so
    each one yielded is valid until the next is requested.
    """
    if not 0 <= start <= stop <= 2**32:  # a path index is one entropy word
        raise InputError("path indices must lie in [0, 2**32)")
    lane_seed = np.random.SeedSequence(seed, spawn_key=(LANES[lane],))
    index = np.arange(start, stop, dtype=np.uint64)[:, None]
    with np.errstate(over="ignore"):  # _mix's difference wraps before its mask
        pool = _mix(lane_seed.pool.astype(np.uint64), _hashmix(index, _HASH_A[:-1], _HASH_A[1:]))
        # generate_state(4, uint64): eight words cycled from the pool
        words = _hashmix(pool[:, [0, 1, 2, 3, 0, 1, 2, 3]], _HASH_B[:-1], _HASH_B[1:])
    stream = np.random.default_rng(lane_seed)
    bit_generator = stream.bit_generator
    # the eight words pair little-endian into four uint64 seed words; PCG64
    # takes initstate = (w0 << 64) | w1 and initseq = (w2 << 64) | w3, sets
    # inc = 2 initseq + 1 and steps the LCG from 0, adding initstate between
    # its two steps
    for s_hi, s_lo, q_hi, q_lo in (words[:, 0::2] | (words[:, 1::2] << np.uint64(32))).tolist():
        inc = (((q_hi << 64) | q_lo) << 1 | 1) & _MASK128
        state = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield stream


@dataclass(frozen=True)
class NoiseRequest:
    """Everything needed to synthesize one reproducible colored ensemble:
    ``n_paths`` paths of an even ``n_steps`` samples at step ``h`` whose
    one-sided spectral density is ``target_spectrum`` (force units).
    """

    n_steps: int
    n_paths: int
    seed: int
    target_spectrum: SpectralDensity
    h: float

    def __post_init__(self):
        n_steps = check_count(self.n_steps, "n_steps", 2)
        if n_steps % 2:
            raise InputError("n_steps must be even")
        object.__setattr__(self, "n_steps", n_steps)
        object.__setattr__(self, "n_paths", check_count(self.n_paths, "n_paths", 1))
        object.__setattr__(self, "seed", check_seed(self.seed))
        if not isinstance(self.target_spectrum, SpectralDensity):
            raise InputError("target_spectrum must be a SpectralDensity")
        check_positive(self.h, "h")


def circulant_spectrum(request):
    """Clamped half-spectrum of the circulant the request embeds in.

    Returns the L + 1 eigenvalues S(omega_k)/h on omega_k = pi k / (L h),
    k = 0..L with L = n_steps, zero beyond the target's last frequency; the
    order-2L circulant repeats them mirrored.  Negatives within
    EIGENVALUE_CLAMP of the largest are set to zero; larger ones, or no
    positive mass at all, raise SpectralPositivityError.
    """
    L = request.n_steps
    sd = request.target_spectrum
    omega = np.pi * np.arange(L + 1) / (L * request.h)
    lam = np.interp(omega, sd.omega, sd.values, right=0.0) / request.h
    top, worst = lam.max(), float(lam.min())
    if top <= 0:
        raise SpectralPositivityError("target has no positive spectral mass", worst=worst)
    if worst < -EIGENVALUE_CLAMP * top:
        raise SpectralPositivityError("target spectrum is indefinite", worst=worst)
    return np.maximum(lam, 0.0)


def generate_colored(request):
    """Synthesize Gaussian paths with the request's target spectrum.

    Path i fills the interleaved spectrum (re_1, im_1, re_2, ...) with
    min(2K + 1, m) normals of its stream on the "colored-force" lane, K
    the last nonzero eigenvalue, and moves the last of them to re_0, the DC
    term; every other slot stays zero.  A full band (K = L) so takes all m
    normals and its last, im_L, becomes the DC term.  Returns a
    PathEnsemble of kind "force" with full seed lineage.
    """
    if not isinstance(request, NoiseRequest):
        raise InputError("request must be a NoiseRequest")
    n = request.n_steps
    m = 2 * n
    # irfft(Y)_j = (1/m) sum_k Y_k e^(2 pi i jk/m) over the Hermitian
    # extension; Y_k = sqrt(lambda_k m) xi_k reproduces the circulant covariance
    weight = np.sqrt(circulant_spectrum(request) * m)
    weight[1:n] *= np.sqrt(0.5)
    last = int(np.flatnonzero(weight)[-1])  # K, the last nonzero weight
    draws = min(2 * last + 1, m)
    paths = np.empty((request.n_paths, n))
    streams = path_streams(request.seed, "colored-force", 0, request.n_paths)
    # one spectrum and one output buffer serve every block: each block
    # rewrites re_0 through re_K+1, and the slots past them stay zero
    block = min(request.n_paths, _SYNTHESIS_BLOCK)
    spectrum = np.zeros((block, n + 1), dtype=complex)
    synthesized = np.empty((block, m))
    for start in range(0, request.n_paths, _SYNTHESIS_BLOCK):
        stop = min(start + _SYNTHESIS_BLOCK, request.n_paths)
        spec = spectrum[: stop - start]
        # interleaved (re_0, im_0, re_1, ..., re_n, im_n): the normals fill
        # from re_1 through re_K+1 (im_n at most), the last moves to re_0,
        # and im_0 and every slot past re_K+1 stay zero
        flat = spec.view(float)
        for row in flat:
            next(streams).standard_normal(out=row[2 : 2 + draws])
        flat[:, 0] = flat[:, draws + 1]
        flat[:, draws + 1] = 0.0
        spec[:, : last + 1] *= weight[: last + 1]
        out = np.fft.irfft(spec, m, out=synthesized[: stop - start])
        paths[start:stop] = out[:, :n]
    return PathEnsemble(h=request.h, paths=paths, kind="force", master_seed=request.seed)


def generate_wiener_increments(n_steps, h, n_paths, seed):
    """I.i.d. Gaussian increments, mean 0 and variance h per step."""
    n_steps = check_count(n_steps, "n_steps", 1)
    n_paths = check_count(n_paths, "n_paths", 1)
    seed = check_seed(seed)
    check_positive(h, "h")
    paths = np.empty((n_paths, n_steps))
    for row, stream in zip(paths, path_streams(seed, "wiener", 0, n_paths)):
        stream.standard_normal(out=row)
    paths *= np.sqrt(h)
    return PathEnsemble(h=h, paths=paths, kind="wiener-increment", master_seed=seed)
