"""Orthogonal space-time block codes: encoding, the real lattice form,
maximum-likelihood decoding, exact real-operation counts, and seeded
Monte-Carlo simulation."""

__version__ = "0.1.0"

from .codes import (
    DispersionCode,
    UnknownCodeError,
    CodeFormatError,
    OrthogonalityError,
    builtin_code_ids,
    encode,
    get_code,
    load_code_file,
    measure_c,
    save_code_file,
)
from .constellation import (
    Constellation,
    ConstellationError,
    get_constellation,
    quantize_indices,
)
from .lattice import (
    RealLattice,
    build_F,
    build_check_H,
    unvectorize,
    verify_lattice,
    vectorize_received,
)
from .decoders import (
    DecodedMessage,
    DegenerateChannelError,
    SearchSpaceError,
    decode_F,
    decode_Fprime,
    decode_lattice,
    decode_trace,
    exhaustive_ml,
)
from .schedule import (
    OpCount,
    Schedule,
    count_ops,
    dump_schedule,
    execute_schedule,
    formula_channel_sigma,
    formula_column_sigma,
    generate_schedule,
)
from .sim import BerResult, SimConfig, run_ber, run_trial, sample_channel

__all__ = [
    "__version__",
    "DispersionCode", "UnknownCodeError", "CodeFormatError",
    "OrthogonalityError", "builtin_code_ids", "encode", "get_code",
    "load_code_file", "measure_c", "save_code_file",
    "Constellation", "ConstellationError", "get_constellation",
    "quantize_indices",
    "RealLattice", "build_F", "build_check_H", "verify_lattice",
    "unvectorize", "vectorize_received",
    "DecodedMessage", "DegenerateChannelError", "SearchSpaceError",
    "decode_F", "decode_Fprime", "decode_lattice", "decode_trace",
    "exhaustive_ml",
    "OpCount", "Schedule", "count_ops", "dump_schedule", "execute_schedule",
    "formula_channel_sigma", "formula_column_sigma", "generate_schedule",
    "BerResult", "SimConfig", "run_ber", "run_trial", "sample_channel",
]
