"""The SNR convention checked against a closed form.

After the matched filter each real component is x + N(0, N0 / (2 sigma))
with sigma = c ||H||_F^2, and ||H||_F^2 is a sum of NM unit exponentials.
So Gray-coded 4qam, one bit per component sign, has the bit error rate of
BPSK with maximal-ratio combining over L = NM Rayleigh branches of mean
SNR c / (2 N0) each.  A wrong noise variance or channel scale moves the
simulated BER off that value; a wrong positive sigma does not, since no
sign decision depends on it.
"""

import math

import pytest

from ostbc_lab.codes import builtin_code_ids, get_code
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
