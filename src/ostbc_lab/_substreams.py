"""Per-trial Philox substreams, drawn a block of trials at a time.

Trial ``t`` of SNR point ``p`` owns the stream of
``np.random.Generator(np.random.Philox(key=(seed, p << 32 | t)))``
(``trial_rng``) and draws, in order, ``standard_normal`` for the channel,
``integers(0, size, K)`` for the symbols and ``standard_normal`` for the
noise (``draw_trial``).  ``draw_block`` gives every trial of a block its
final draws: the batched ``draw`` covers most of them, and the few it marks
not ``ok`` are redrawn by ``draw_trial`` on their own generator.  The draws
are unscaled; the caller applies the channel and noise variances.

``draw`` reproduces the per-trial values bit for bit for a block of trials
with whole-array operations, with no Python loop over trials or normals:

* Raw words are Philox4x64-10 (Salmon et al., "Parallel Random Numbers: As
  Easy as 1, 2, 3", SC'11) under every key of the block, for counters 1, 2,
  ...: NumPy's bit generator bumps the counter before it fills its 4-word
  buffer.  The 64x64 -> 128-bit products are built from 32-bit halves.
* Normals follow NumPy's 256-layer ziggurat (Marsaglia & Tsang, JSS 2000):
  a word r gives the layer ``idx = r & 0xff``, the sign bit 8 and the
  52-bit ``rabs = r >> 9``; ``x = rabs * wi[idx]`` is returned at once iff
  ``rabs < ki[idx]``.  Otherwise the word is slow: the next word is a
  uniform ``u``, and the wedge accepts ``x`` iff
  ``(fi[idx-1] - fi[idx]) * u + fi[idx] < exp(-x*x/2)``.  A rejected
  attempt emits nothing and the next word starts a new one.
* Symbol indices are ``integers`` on a power-of-two size, which NumPy draws
  with Lemire's method on 32-bit halves, low half of a word first:
  ``(u32 * size) >> 32``, never rejecting.

Most rows hold no slow word among the n_h channel words and the n_noise
noise words of their first n_h + ceil(K/2) + n_noise words: 89% of g2 rows
at M=1, 52% of g3 rows at M=2.  Those words are then, in order, the channel
normals, the symbol words and the noise normals, so every row is first read
that way by column slices; the wedge test and the attempt parsing run only on
the rows with a slow channel or noise word there, and overwrite them.  A
slow symbol word needs no parse: symbols are read from raw words.
The sign bit is folded into 512-entry tables indexed by a word's low 9 bits:
``rabs * -wi == -(rabs * wi)`` exactly.

A trial that leaves these paths is marked not ``ok`` and must be redrawn
by ``draw_trial``: a slow word in layer 0 (the tail, whose logarithms NumPy
takes in C), a wedge comparison within ``_BAND`` of a tie (``np.exp`` may
differ from the C library's ``exp`` in the last bits, and ``fi`` is derived
here), a block too short for its slow words, or an all-zero channel.  That
is 0.2-1.2% of trials for the built-in codes, most of them tails.

The ``wi`` and ``ki`` tables are NumPy's.  They are committed at the end of
this module rather than probed from a generator at import: that probe is a
binary search over 256 layers and would add about 0.15 s to every start-up.
The tests check the tables against the live ``Generator``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["philox_words", "words_per_trial", "draw", "trial_rng",
           "draw_trial", "draw_block"]

_LO32 = np.uint64(0xFFFFFFFF)
_MASK52 = np.uint64((1 << 52) - 1)
# Philox4x64: the multipliers of counter words 0 and 2, and the key bumps.
_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_M_LO, _M_HI = _M & _LO32, _M >> 32
_BUMP = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]],
                 dtype=np.uint64)
_ROUNDS = 10
# Spare words per trial for the extra word of each slow attempt.
_SLACK = 8
# Relative half-width of a wedge comparison left to the fallback: 256 ulps,
# well over the few ulps that the derived fi (an ulp, doubled where adjacent
# fi differ by 2x) and np.exp against the C library's exp can move it.
_BAND = 2.0 ** -44


def _mulhilo(a, hi, lo, t, u):
    """hi, lo <- (high, low) 64-bit halves of the 128-bit products _M * a;
    t and u are scratch arrays of a's shape."""
    np.bitwise_and(a, _LO32, out=lo)            # a_lo
    np.multiply(lo, _M_LO, out=t)
    t >>= 32
    np.multiply(lo, _M_HI, out=u)
    np.right_shift(a, 32, out=hi)               # a_hi
    np.multiply(hi, _M_LO, out=lo)
    t += lo                                     # a_hi*M_lo + (a_lo*M_lo >> 32)
    hi *= _M_HI
    np.bitwise_and(t, _LO32, out=lo)
    u += lo                                     # a_lo*M_hi + (t & LO32)
    u >>= 32
    t >>= 32
    hi += t
    hi += u
    np.multiply(a, _M, out=lo)


def _rounds(key, even):
    """Philox4x64-10 on counter words (0, 2) = `even` and (1, 3) = 0 under
    `key`, in place on a fixed set of buffers: the final (even, odd)."""
    odd = np.zeros_like(key)
    hi, lo, t, u = (np.empty_like(key) for _ in range(4))
    for r in range(_ROUNDS):
        if r:
            key += _BUMP
        _mulhilo(even, hi, lo, t, u)
        np.bitwise_xor(hi[::-1], odd, out=even)
        even ^= key
        odd, lo = lo[::-1], odd
    return even, odd


def philox_words(seed: int, keys, nblocks: int) -> np.ndarray:
    """First 4*nblocks raw words of Philox4x64-10 under each key
    (seed, keys[i]): row i equals
    ``np.random.Philox(key=[seed, keys[i]]).random_raw(4 * nblocks)``.

    Block c of a key starts from the counter (c, 0, 0, 0).  Counter words
    (0, 2) and (1, 3) are kept as pairs of rows over every (key, block).
    """
    keys = np.asarray(keys, dtype=np.uint64)
    key = np.empty((2, keys.shape[0] * nblocks), dtype=np.uint64)
    key[0], key[1] = seed, np.repeat(keys, nblocks)
    even = np.zeros_like(key)
    even[0] = np.tile(np.arange(1, nblocks + 1), keys.shape[0])
    even, odd = _rounds(key, even)
    # (pair, key x block) twice -> (key x block, pair, even/odd)
    words = np.empty((key.shape[1], 2, 2), dtype=np.uint64)
    words[..., 0], words[..., 1] = even.T, odd.T
    return words.reshape(keys.shape[0], 4 * nblocks)


def _attempts(slow, emit, undecided, first, n):
    """The words that give the first n normals parsed from column `first` of
    each row: (mask (B, W) with n words per row, end column (B,), bad (B,)).

    An attempt starts at `first`.  A slow word's attempt also takes the
    next word as its uniform, so after a run of c slow words the next word
    starts an attempt iff c is even.  A row is bad when it holds fewer than
    n normals (its mask then picks placeholder words), or when an undecided
    word starts an attempt before `end`.
    """
    b, width = slow.shape
    cols = np.arange(width)
    before = cols < first[:, None]
    fence = np.where(before | ~slow, cols, -1)
    np.maximum.accumulate(fence, axis=1, out=fence)
    # column j starts an attempt iff j - fence[j-1] is odd, that is iff
    # (cols - fence) is even at j-1
    np.subtract(cols, fence, out=fence)
    fence &= 1
    start = ~before
    start[:, 1:] &= fence[:, :-1] == 0
    out = start & emit
    count = np.cumsum(out, axis=1, out=fence)
    short = count[:, -1] < n
    last = np.argmax(count >= n, axis=1)
    end = last + 1 + slow[np.arange(b), last]
    bad = short | np.any(start & undecided & (cols < end[:, None]), axis=1)
    take = out & (count <= n)
    take[short] = cols < n
    return take, end, bad


def _ziggurat(words):
    """The ziggurat's fast-path value of each word, +-rabs * wi[idx], and
    whether the word is slow, rabs >= ki[idx]."""
    # the low 9 bits, layer and sign, are below 2**63: their int64 view is
    # their value
    low = np.bitwise_and(words, 0x1FF).view(np.int64)
    rabs = words >> 9
    rabs &= _MASK52
    slow = rabs >= _KI9[low]
    x = _WI9[low]
    x *= rabs
    return x, slow


def _symbols(w, size):
    """integers(0, size, k) from the word that holds each symbol (B, k):
    Lemire on 32-bit halves, low half first."""
    odd = np.arange(w.shape[1]) % 2 == 1
    half = np.where(odd, w >> 32, w & _LO32)
    return ((half * np.uint64(size)) >> 32).astype(np.intp)


def _parse(words, n_h, k, size, n_noise):
    """Draws of rows whose words may hold slow normals: (channel normals,
    symbol indices, noise normals, ok), ok False where a row leaves the
    paths reproduced here."""
    b, width = words.shape
    sym_words = (k + 1) // 2
    x, slow = _ziggurat(words)
    # A slow word is a wedge attempt with the next word as its uniform.
    emit = ~slow
    undecided = np.zeros_like(slow)
    r, c = np.nonzero(slow)
    layer = (words[r, c] & 0xFF).astype(np.intp)
    u = (words[r, np.minimum(c + 1, width - 1)] >> 11) * 2.0 ** -53
    lhs = (_FI[layer - 1] - _FI[layer]) * u + _FI[layer]
    xw = x[r, c]
    rhs = np.exp(-0.5 * xw * xw)
    emit[r, c] = lhs < rhs
    undecided[r, c] = ((layer == 0) | (c + 1 == width)
                       | (np.abs(lhs - rhs) <= _BAND * rhs))

    # The channel is parsed from the first n_h + _SLACK words only; a row
    # that needs more is short there and falls back.
    head = slice(0, n_h + _SLACK)
    take, end_h, bad_h = _attempts(slow[:, head], emit[:, head],
                                   undecided[:, head],
                                   np.zeros(b, dtype=np.intp), n_h)
    h = x[:, head][take].reshape(b, n_h)
    take, _, bad_n = _attempts(slow, emit, undecided, end_h + sym_words,
                               n_noise)
    noise = x[take].reshape(b, n_noise)
    cols = np.minimum(end_h[:, None] + np.arange(k) // 2, width - 1)
    sym = _symbols(np.take_along_axis(words, cols, axis=1), size)
    return h, sym, noise, ~(bad_h | bad_n)


def words_per_trial(n_h: int, k: int, n_noise: int) -> int:
    """Raw words ``draw`` takes per trial: n_h + ceil(k/2) + n_noise and
    ``_SLACK`` spare words, rounded up to whole 4-word Philox blocks."""
    return 4 * -(-(n_h + (k + 1) // 2 + n_noise + _SLACK) // 4)


def draw(seed: int, point: int, trials, n_h: int, k: int, size: int,
         n_noise: int):
    """Unscaled draws of trials `trials` of `point`: (channel normals
    (B, n_h), symbol indices (B, k), noise normals (B, n_noise), ok (B,)).

    Rows not ``ok`` hold arbitrary values and must be redrawn per trial.
    `size` must be a power of two below 2**32.

    A row whose first n_h channel words and the n_noise noise words after
    its ceil(k/2) symbol words are all fast is read straight from those
    columns: channel normals, symbol words, noise normals.  A symbol word is
    read raw, so whether it is slow does not matter.  Only the rows with a
    slow channel or noise word are parsed word by word, and their draws
    overwrite the sliced ones.
    """
    if size < 1 or size & (size - 1) or size >= 2 ** 32:
        raise ValueError("size must be a power of two below 2**32")
    trials = np.asarray(trials, dtype=np.uint64)
    sym_words = (k + 1) // 2
    lead = n_h + sym_words + n_noise
    words = philox_words(seed, np.uint64(point << 32) | trials,
                         words_per_trial(n_h, k, n_noise) // 4)
    x, slow = _ziggurat(words[:, :lead])
    h, noise = x[:, :n_h], x[:, n_h + sym_words:]
    sym = _symbols(words[:, n_h + np.arange(k) // 2], size)
    ok = np.ones(len(trials), dtype=bool)
    slow[:, n_h:n_h + sym_words] = False
    slow_rows = np.flatnonzero(slow.any(axis=1))
    if slow_rows.size:
        # keep only the parsed rows' words, which lowers the peak memory
        words = words[slow_rows]
        h[slow_rows], sym[slow_rows], noise[slow_rows], ok[slow_rows] = \
            _parse(words, n_h, k, size, n_noise)
    return h, sym, noise, ok & h.any(axis=1)


def trial_rng(seed: int, point: int, trial: int) -> np.random.Generator:
    """The generator of trial `trial` of `point`: Philox4x64-10 under the
    key (seed, point << 32 | trial)."""
    key = np.array([seed, (point << 32) | trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def draw_trial(rng: np.random.Generator, n_h: int, k: int, size: int,
               n_noise: int):
    """Unscaled draws of one trial from `rng`, in order: (channel normals
    (n_h,), symbol indices (k,), noise normals (n_noise,), redraws), an
    all-zero channel (never seen in practice) redrawn and counted."""
    if n_h < 1:
        # an empty channel is all zero, so the redraw loop would never end
        raise ValueError(f"n_h must be >= 1, got {n_h}")
    h = rng.standard_normal(n_h)
    redraws = 0
    while not h.any():
        h = rng.standard_normal(n_h)
        redraws += 1
    return h, rng.integers(0, size, k), rng.standard_normal(n_noise), redraws


def draw_block(seed: int, point: int, trials, n_h: int, k: int, size: int,
               n_noise: int):
    """Unscaled final draws of trials `trials` of `point`: (channel normals
    (B, n_h), symbol indices (B, k), noise normals (B, n_noise), redraws),
    row i equal to ``draw_trial`` on ``trial_rng(seed, point, trials[i])``,
    which redraws the rows that the batched ``draw`` leaves not ``ok``."""
    h, sym, noise, ok = draw(seed, point, trials, n_h, k, size, n_noise)
    redraws = 0
    for i in np.flatnonzero(~ok):
        h[i], sym[i], noise[i], r = draw_trial(
            trial_rng(seed, point, int(trials[i])), n_h, k, size, n_noise)
        redraws += r
    return h, sym, noise, redraws


# NumPy's ziggurat tables wi_double and ki_double
# (numpy/random/src/distributions/ziggurat_constants.h).  They are one string
# each because a literal per value makes compiling this module cost ~1 MB.
_WI = np.array("""
8.683627060801306e-16 4.779330175727737e-17 6.354352417405262e-17
7.454870481247696e-17 8.3293668157931e-17 9.068060405059482e-17
9.714860076567762e-17 1.0294750314241019e-16 1.0823430288447684e-16
1.131147019610903e-16 1.176635945702292e-16 1.2193617278714363e-16
1.2597439914637093e-16 1.2981099886264032e-16 1.3347203736824123e-16
1.3697864842571203e-16 1.4034823001242382e-16 1.4359529452056943e-16
1.4673208742364422e-16 1.4976904668391037e-16 1.5271515003596198e-16
1.5557818169460764e-16 1.5836494009290885e-16 1.6108140175274928e-16
1.6373285203969853e-16 1.6632399058420835e-16 1.6885901708676596e-16
1.713417017655966e-16 1.737754436586486e-16 1.7616331923000996e-16
1.7850812316976727e-16 1.8081240285799152e-16 1.830784876482675e-16
1.853085138861802e-16 1.8750444639373882e-16 1.896680970077476e-16
1.918011406483862e-16 1.9390512930625104e-16 1.9598150426628824e-16
1.9803160683128174e-16 2.000566877627333e-16 2.0205791562071654e-16
2.0403638415480212e-16 2.0599311887403706e-16 2.079290829041402e-16
2.0984518222370352e-16 2.1174227035760342e-16 2.1362115259449868e-16
2.1548258978581458e-16 2.1732730177564367e-16 2.191559705042727e-16
2.2096924282235318e-16 2.2276773304789553e-16 2.2455202529414355e-16
2.263226755928568e-16 2.280802138345017e-16 2.2982514554424684e-16
2.3155795351040804e-16 2.3327909928004356e-16 2.3498902453470955e-16
2.3668815235791604e-16 2.3837688840454243e-16 2.4005562198135063e-16
2.4172472704675025e-16 2.433845631371103e-16 2.4503547622614954e-16
2.466777995232705e-16 2.4831185421610877e-16 2.4993795016204524e-16
2.515563865329658e-16 2.5316745241713583e-16 2.547714273816944e-16
2.563685819989397e-16 2.579591783392867e-16 2.5954347043351707e-16
2.6112170470670194e-16 2.6269412038597256e-16 2.6426094988411895e-16
2.658224191608307e-16 2.6737874806323633e-16 2.689301506472616e-16
2.704768354811995e-16 2.720190059327732e-16 2.735568604408679e-16
2.7509059277301666e-16 2.7662039226963903e-16 2.781464440759544e-16
2.79668929362423e-16 2.8118802553450207e-16 2.827039064324479e-16
2.842167425218406e-16 2.8572670107546015e-16 2.87233946347098e-16
2.887386397378482e-16 2.9024093995538423e-16 2.9174100316669455e-16
2.9323898314471816e-16 2.947350314092935e-16 2.9622929736280665e-16
2.977219284209029e-16 2.992130701386013e-16 3.007028663321331e-16
3.0219145919680615e-16 3.036789894211802e-16 3.051655962978219e-16
3.0665141783089545e-16 3.081365908408297e-16 3.0962125106629225e-16
3.111055332636893e-16 3.125895713043999e-16 3.140734982699446e-16
3.1555744654528006e-16 3.1704154791040285e-16 3.1852593363044065e-16
3.2001073454440114e-16 3.214960811527447e-16 3.2298210370394156e-16
3.244689322801698e-16 3.2595669688230784e-16 3.2744552751437067e-16
3.2893555426753697e-16 3.3042690740391284e-16 3.3191971744017523e-16
3.3341411523123725e-16 3.3491023205407785e-16 3.364081996918765e-16
3.37908150518595e-16 3.394102175841489e-16 3.409145347003126e-16
3.424212365275018e-16 3.4393045866258313e-16 3.454423377278584e-16
3.4695701146137835e-16 3.4847461880874137e-16 3.499953000165381e-16
3.5151919672760744e-16 3.53046452078274e-16 3.5457721079774357e-16
3.5611161930983884e-16 3.5764982583726505e-16 3.59191980508603e-16
3.6073823546823514e-16 3.6228874498941915e-16 3.6384366559073444e-16
3.65403156156137e-16 3.669673780588701e-16 3.685364952894914e-16
3.7011067458828983e-16 3.716900855823823e-16 3.7327490092779435e-16
3.7486529645684887e-16 3.7646145133120287e-16 3.7806354820089604e-16
3.7967177336979443e-16 3.8128631696783774e-16 3.829073731305243e-16
3.8453514018609596e-16 3.8616982085091493e-16 3.878116224335587e-16
3.894607570481926e-16 3.9111744183782054e-16 3.9278189920805415e-16
3.944543570720877e-16 3.9613504910761354e-16 3.9782421502646826e-16
3.995221008578565e-16 4.012289592460629e-16 4.029450497636328e-16
4.04670639241075e-16 4.0640600211422504e-16 4.0815142079049387e-16
4.0990718603532664e-16 4.1167359738030257e-16 4.134509635544236e-16
4.1523960294026883e-16 4.170398440568316e-16 4.1885202607101123e-16
4.206764993399015e-16 4.2251362598620494e-16 4.243637805093078e-16
4.262273504347798e-16 4.2810473700531167e-16 4.2999635591638323e-16
4.3190263810026294e-16 4.338240305622791e-16 4.357609972736849e-16
4.3771402012585875e-16 4.3968359995105214e-16 4.4167025761542035e-16
4.4367453519065673e-16 4.456969972112043e-16 4.477382320247534e-16
4.49798853244555e-16 4.518795013130059e-16 4.539808451870034e-16
4.561035841567422e-16 4.582484498109567e-16 4.604162081631153e-16
4.626076619547846e-16 4.648236531543207e-16 4.670650656712631e-16
4.693328283093329e-16 4.716279179838351e-16 4.739513632325867e-16
4.763042480533137e-16 4.786877161048723e-16 4.811029753147417e-16
4.835513029411525e-16 4.860340511450812e-16 4.885526531353603e-16
4.91108629959527e-16 4.937035980240335e-16 4.963392774403987e-16
4.990175013091822e-16 5.017402260718089e-16 5.045095430818727e-16
5.073276915733542e-16 5.101970732341562e-16 5.131202686306784e-16
5.161000557743228e-16 5.191394311757699e-16 5.222416338000234e-16
5.254101724177597e-16 5.286488569504945e-16 5.3196183453384e-16
5.353536311816497e-16 5.388292001334053e-16 5.423939782201712e-16
5.46053951907478e-16 5.498157350892814e-16 5.536866612467876e-16
5.576748932926576e-16 5.617895553555417e-16 5.660408920082422e-16
5.704404621291389e-16 5.750013768919895e-16 5.797385945724594e-16
5.846692893455479e-16 5.898133176477899e-16 5.951938149641444e-16
6.008379696271908e-16 6.067780409333449e-16 6.130527208725282e-16
6.197089894581626e-16 6.268046963301284e-16 6.344122407127506e-16
6.426239659548055e-16 6.515603317344994e-16 6.613827885097664e-16
6.723150462505587e-16 6.846803417564259e-16 6.98971833638762e-16
7.159994934830664e-16 7.372424301798799e-16 7.658936370805573e-16
8.113849337656484e-16
""".split(), dtype=np.float64)
_KI = np.array("""
4208095142473578 0 3387314423973544 3838760076542274 4030768804392682
4136731738896254 4203757248105145 4249917568205994 4283617341590296
4309289223136604 4329489775174550 4345795907393188 4359232558744730
4370494503737299 4380069246215646 4388308869042394 4395473957549321
4401761481783924 4407323076021240 4412277362218204 4416718463613199
4420722014516422 4424349484777079 4427651345409294 4430669422005229
4433438668975191 4435988524278344 4438343955930065 4440526279077425
4442553800234660 4444442329865861 4446205593658138 4447855565093316
4449402736340121 4450856340408624 4452224534496486 4453514552210512
4454732830656798 4455885117109368 4456976558985043 4458011780094444
4458994945550386 4459929817254120 4460819801517196 4461667990089170
4462477195632268 4463249982500384 4463988693531856 4464695473445501
4465372289331869 4466020948651920 4466643115089764 4467240322552142
4467813987562542 4468365420260672 4468895834186994 4469406355006040
4469898028300364 4470371826548633 4470828655385770 4471269359229841
4471694726349190 4472105493433674 4472502349725738 4472885940759935
4473256871753524 4473615710685532 4473962991097124 4474299214642296
4474624853414418 4474940352071305 4475246129778808 4475542581990776
4475830082081194 4476108982842610 4476379617863426 4476642302795321
4476897336520866 4477145002230339 4477385568415884 4477619289790266
4477846408136804 4478067153096380 4478281742896886 4478490385029917
4478693276879082 4478890606303906 4479082552182886 4479269284918997
4479450966910588 4479627752990372 4479799790834988 4479967221347354
4480130179013872 4480288792238368 4480443183654460 4480593470417939
4480739764480586 4480882172846772 4481020797814010 4481155737198612
4481287084547452 4481414929336784 4481539357158974 4481660449897960
4481778285894165 4481892940099539 4482004484223382 4482112986869492
4482218513665204 4482321127382802 4482420888053758 4482517853076245
4482612077316275 4482703613202871 4482792510817576 4482878817978627
4482962580320076 4483043841366126 4483122642600925 4483199023534056
4483273021761922 4483344673025224 4483414011262724 4483481068661428
4483545875703378 4483608461209170 4483668852378323 4483727074826624
4483783152620564 4483837108308932 4483888962951686 4483938736146144
4483986446050596 4484032109405372 4484075741551420 4484117356446452
4484156966678662 4484194583478081 4484230216725550 4484263874959345
4484295565379450 4484325293849474 4484353064896186 4484378881706674
4484402746123075 4484424658634833 4484444618368474 4484462623074794
4484478669113436 4484492751434740 4484504863558830 4484514997551788
4484523143998833 4484529291974394 4484533429008906 4484535541052219
4484535612433424 4484533625816926 4484529562154580 4484523400633636
4484515118620291 4484504691598554 4484492093104164 4484477294653230
4484460265665252 4484440973380154 4484419382768918 4484395456437370
4484369154522621 4484340434581640 4484309251471359 4484275557219678
4484239300886654 4484200428415112 4484158882469814 4484114602264271
4484067523374160 4484017577536216 4483964692431365 4483908791450714
4483849793442887 4483787612441036 4483722157367660 4483653331715198
4483581033200083 4483505153387764 4483425577285833 4483342182902157
4483254840764470 4483163413397547 4483067754753536 4482967709590562
4482863112794072 4482753788634692 4482639549955636 4482520197281720
4482395517841076 4482265284489409 4482129254525304 4481987168383486
4481838748191074 4481683696169781 4481521692864464 4481352395175570
4481175434169564 4480990412637506 4480796902367134 4480594441088331
4480382529045225 4480160625140311 4479928142586662 4479684443993061
4479428835793398 4479160561915451 4478878796564388 4478582635972392
4478271088936406 4477943065929958 4477597366530538 4477232664848704
4476847492576192 4476440219183781 4476009028690434 4475551892286424
4475066535915646 4474550401693506 4474000601739904 4473413862618200
4472786458058295 4472114126959004 4471391972746494 4470614338917719
4469774653883156 4468865235838896 4467877045039530 4466799366045354
4465619395558397 4464321701199635 4462887501169282 4461293691124341
4459511507635972 4457504658253067 4455226650325010 4452616884242348
4449594783440798 4446050695647666 4441831266659618 4436714892174061
4430368316897338 4422264825074740 4411517007702132 4396496531309976
4373832704204284 4335125104963628 4251099761679434
""".split(), dtype=np.uint64)
# fi[i] = exp(-x_i**2 / 2) at the layer edge x_i = wi[i] * 2**52, within
# an ulp of NumPy's fi_double; _BAND absorbs the difference.
_FI = np.exp(-0.5 * (_WI * 2.0 ** 52) ** 2)
_FI[0] = 1.0
# The tables indexed by a word's low 9 bits, the layer and the sign bit
# above it: -(rabs * wi) == rabs * -wi exactly, so the sign is in the table.
_WI9 = np.concatenate((_WI, -_WI))
_KI9 = np.tile(_KI, 2)
