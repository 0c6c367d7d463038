"""The SNR convention checked against a closed form.

After the matched filter each real component is x + N(0, N0 / (2 sigma))
with sigma = c ||H||_F^2, and ||H||_F^2 is a sum of NM unit exponentials.
So Gray-coded 4qam, one bit per component sign, has the bit error rate of
BPSK with maximal-ratio combining over L = NM Rayleigh branches of mean
SNR c / (2 N0) each.  A wrong noise variance or channel scale moves the
simulated BER off that value; a wrong positive sigma does not, since no
sign decision depends on it.

The same model gives SER and BER for any square QAM (Simon & Alouini,
*Digital Communication over Fading Channels*): given t = ||H||_F^2, each
component is an L-PAM decision with noise N(0, N0 / (2 c t)), and the
average over t ~ Gamma(NM, 1) is a composite Gauss-Legendre quadrature in
u = log t.  Gauss-Laguerre in t does not converge at high SNR with low
diversity.  A positive scale error in sigma moves 16qam's inner decision
midpoints, so only 16qam shows sigma without c.
"""

import math

import numpy as np
import pytest

from ostbc_lab.codes import builtin_code_ids, get_code
from ostbc_lab.constellation import get_constellation
from ostbc_lab.sim import SimConfig, run_ber

TRIALS = 20_000


def mrc_bpsk_ber(branches: int, snr: float) -> float:
    """Average BPSK bit error rate with maximal-ratio combining over
    `branches` i.i.d. Rayleigh branches of mean SNR `snr` each (Proakis,
    *Digital Communications*, the MRC diversity formula)."""
    mu = math.sqrt(snr / (1.0 + snr))
    return ((1.0 - mu) / 2.0) ** branches * sum(
        math.comb(branches - 1 + k, k) * ((1.0 + mu) / 2.0) ** k
        for k in range(branches))


def test_mrc_formula_one_branch():
    # one branch: (1 - mu) / 2, the Rayleigh BPSK result
    assert mrc_bpsk_ber(1, 1.0) == pytest.approx((1 - math.sqrt(0.5)) / 2)


@pytest.mark.parametrize("cid", builtin_code_ids())
@pytest.mark.parametrize("m", [1, 2])
def test_4qam_ber_matches_mrc_closed_form(cid, m):
    code = get_code(cid)
    n0 = 1.0  # 0 dB
    want = mrc_bpsk_ber(code.n * m, code.c / (2.0 * n0))
    result = run_ber(SimConfig(code=cid, constellation="4qam", snr_db=(0.0,),
                               trials=TRIALS, seed=11, m=m))
    # a trial's bit error fraction lies in [0, 1], so its variance is at
    # most p (1 - p) however the bits of one block correlate
    bound = 4.0 * math.sqrt(want * (1.0 - want) / TRIALS)
    assert abs(result.points[0].ber - want) <= bound


_Q = np.frompyfunc(lambda x: 0.5 * math.erfc(x / math.sqrt(2.0)), 1, 1)


def gamma_quadrature(shape: int, panels: int = 64, nodes: int = 16):
    """Nodes t and weights w with sum(w f(t)) ~ E f(T), T ~ Gamma(shape, 1):
    Gauss-Legendre on `panels` equal panels of u = log t over
    [log 1e-12, log(shape + 60)], where T has density
    exp(shape u - e^u) / Gamma(shape)."""
    x, wx = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(math.log(1e-12), math.log(shape + 60.0), panels + 1)
    half = np.diff(edges)[:, None] / 2.0
    u = ((edges[:-1, None] + edges[1:, None]) / 2.0 + half * x).ravel()
    w = (half * wx).ravel() * np.exp(shape * u - np.exp(u)
                                     - math.lgamma(shape))
    return np.exp(u), w


def theory_ser_ber(cid: str, mod: str, m: int, snr_db: float,
                   panels: int = 64) -> tuple[float, float]:
    """Closed-form (SER, BER) of `cid` with m receive antennas.

    Given t, P[i, j] is the chance that component i is decided as j; each
    entry is a difference of Q values on the tail away from component i, so
    small error rates keep their relative accuracy.  A symbol is wrong when
    either of its two independent components is: SER = 1 - (1 - p)^2 with
    p = 1 - mean_i P[i, i].  BER counts the Gray bits each wrong decision
    flips (Cho & Yoon, IEEE Trans. Commun. 50(7), 2002).
    """
    code, const = get_code(cid), get_constellation(mod)
    a, gray = const.component_alphabet, const.gray
    n0 = 10.0 ** (-snr_db / 10.0)
    t, w = gamma_quadrature(code.n * m, panels)
    s = np.sqrt(n0 / (2.0 * code.c * t))[:, None, None]
    # decision region j of the alphabet is (ext[j], ext[j + 1])
    ext = np.concatenate(([-np.inf], (a[1:] + a[:-1]) / 2.0, [np.inf]))
    up = _Q((ext - a[:, None]) / s).astype(float)    # P(z > ext[k])
    down = _Q((a[:, None] - ext) / s).astype(float)  # P(z < ext[k])
    i, j = np.indices((len(a), len(a)))
    cross = np.where(j > i, up[..., :-1] - up[..., 1:],
                     np.where(j < i, down[..., 1:] - down[..., :-1], 0.0))
    rows = np.arange(len(a))
    p = np.mean(up[:, rows, rows + 1] + down[:, rows, rows], axis=1)
    bits = np.bitwise_count(gray[:, None] ^ gray[None, :])
    ber = np.mean(np.sum(cross * bits, axis=2), axis=1) / math.log2(len(a))
    return float(w @ (2.0 * p - p * p)), float(w @ ber)


def test_quadrature_weights_sum_to_one():
    for shape in (2, 3, 4, 6, 8):
        assert abs(gamma_quadrature(shape)[1].sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("cid", builtin_code_ids())
@pytest.mark.parametrize("m", [1, 2])
def test_quadrature_4qam_ber_matches_mrc_closed_form(cid, m):
    # two independent oracles for one number
    code = get_code(cid)
    for snr_db in (0.0, 10.0, 20.0, 30.0):
        n0 = 10.0 ** (-snr_db / 10.0)
        want = mrc_bpsk_ber(code.n * m, code.c / (2.0 * n0))
        got = theory_ser_ber(cid, "4qam", m, snr_db)[1]
        assert got == pytest.approx(want, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("cid", builtin_code_ids())
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("mod", ["4qam", "16qam"])
def test_quadrature_converged(cid, m, mod):
    for snr_db in (0.0, 20.0, 30.0):
        coarse = theory_ser_ber(cid, mod, m, snr_db)
        fine = theory_ser_ber(cid, mod, m, snr_db, panels=128)
        assert coarse == pytest.approx(fine, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("cid,mod,m,snr_db,ser", [
    ("g2", "4qam", 1, 6.0, 0.04518),
    ("g4", "16qam", 1, 6.0, 0.05115),
    ("h3", "16qam", 1, 8.0, 0.13812),
    ("g3", "16qam", 2, 0.0, 0.20483),
    ("g4", "4qam", 2, 0.0, 0.00103),
])
def test_theory_ser_reference_values(cid, mod, m, snr_db, ser):
    # the values of a separate derivation, quoted to five decimals
    assert round(theory_ser_ber(cid, mod, m, snr_db)[0], 5) == ser


@pytest.mark.parametrize("cid", builtin_code_ids())
@pytest.mark.parametrize("m,mod,snr_db", [
    (1, "4qam", 0.0), (1, "16qam", 6.0), (2, "4qam", 0.0), (2, "16qam", 0.0),
])
def test_simulated_ser_and_ber_match_theory(cid, m, mod, snr_db):
    want = theory_ser_ber(cid, mod, m, snr_db)
    point = run_ber(SimConfig(code=cid, constellation=mod, snr_db=(snr_db,),
                              trials=TRIALS, seed=11, m=m)).points[0]
    # per trial, the symbol and the bit error fractions each lie in [0, 1]
    for got, p in zip((point.ser, point.ber), want):
        assert abs(got - p) <= 4.0 * math.sqrt(p * (1.0 - p) / TRIALS)
