"""First return maps from ordinal partitions of scalar time series.

The analysis chain: integrate or load a scalar series, slide ordinal
windows over it, treat each occurring pattern as a candidate surface of
section, score partitions by weighted permutation entropies of their
sub-series, group them into entropy levels, and read first return maps
off the entry points of the good sections.
"""

from .embedding import (
    EmbeddingConfig,
    LORENZ_EMBEDDING,
    MACKEY_GLASS_EMBEDDING,
    ROSSLER_EMBEDDING,
    delay_embed,
    window_from_embedding,
)
from .encoding import (
    OrdinalPattern,
    SymbolSequence,
    WindowConfig,
    decode_pattern,
    distinct_patterns,
    entry_mask,
    pattern_code,
    symbolize,
    window_count,
)
from .errors import (
    ConfigError,
    DivergenceError,
    EmptyMapError,
    OrdmapsError,
    ParseError,
    PatternAbsentError,
    TooShortError,
)
from .levels import (
    LevelNetwork,
    build_level_network,
    entry_level_sequence,
    level_sequence,
)
from .manifest import TOOL_VERSION as __version__
from .network import (
    TransitionCounts,
    build_opn,
    occupancy,
    permutation_entropy,
)
from .ranking import (
    LevelConfig,
    PartitionTable,
    SubSeriesConfig,
    detect_levels,
    entry_points,
    extract_subseries,
    partition_table,
)
from .returnmaps import (
    DiagonalSplit,
    ReturnMap,
    diagonal_split,
    wing_split,
    frm_from_entries,
    local_maxima_indices,
    maxima_frm,
)
from .series import TimeSeries, dump_series, load_series, series_sha256
from .sources import (
    LorenzParams,
    MackeyGlassParams,
    RosslerParams,
    SimulationConfig,
    delay_steps,
    integrate_lorenz,
    integrate_mackey_glass,
    integrate_rossler,
    kept_points,
)

__all__ = [
    "ConfigError",
    "DiagonalSplit",
    "DivergenceError",
    "EmbeddingConfig",
    "EmptyMapError",
    "LevelConfig",
    "LevelNetwork",
    "LorenzParams",
    "LORENZ_EMBEDDING",
    "MackeyGlassParams",
    "MACKEY_GLASS_EMBEDDING",
    "OrdinalPattern",
    "OrdmapsError",
    "ParseError",
    "PartitionTable",
    "PatternAbsentError",
    "ReturnMap",
    "RosslerParams",
    "ROSSLER_EMBEDDING",
    "SimulationConfig",
    "SubSeriesConfig",
    "SymbolSequence",
    "TimeSeries",
    "TooShortError",
    "TransitionCounts",
    "WindowConfig",
    "build_level_network",
    "build_opn",
    "decode_pattern",
    "delay_embed",
    "delay_steps",
    "detect_levels",
    "diagonal_split",
    "wing_split",
    "distinct_patterns",
    "dump_series",
    "entry_level_sequence",
    "entry_mask",
    "entry_points",
    "extract_subseries",
    "frm_from_entries",
    "integrate_lorenz",
    "integrate_mackey_glass",
    "integrate_rossler",
    "kept_points",
    "level_sequence",
    "load_series",
    "local_maxima_indices",
    "maxima_frm",
    "occupancy",
    "partition_table",
    "pattern_code",
    "permutation_entropy",
    "series_sha256",
    "symbolize",
    "window_count",
    "window_from_embedding",
]
