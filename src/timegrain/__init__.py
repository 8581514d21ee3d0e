"""Cyclic granularities for ordered indexes.

Deconstruct an integer index (timestamps, ball-by-ball orderings, any
total order) into linear and cyclic granularities, screen granularity
pairs into harmonies and clashes, and summarize a measurement's
distribution across the level combinations of a pair.
"""

from .calfile import Calendar, format_calendar, load_calendar, parse_calendar, save_calendar
from .cyclic import (
    APERIODIC,
    CIRCULAR,
    QUASI_CIRCULAR,
    CyclicDescriptor,
    aperiodic_descriptor,
    apply_labels,
    compose_up,
    derive_descriptor,
    evaluate,
    pairwise_descriptor,
    reduce_to_single,
)
from .distill import (
    DEFAULT_PROBS,
    CellSummary,
    LevelsCategory,
    PlotSpec,
    Recommendation,
    categorize_levels,
    emit_plot_spec,
    letter_value_probabilities,
    recommend,
    summarize_cells,
    write_summaries,
)
from .errors import ComputationError, DataError, TimegrainError, ValidationError
from .harmony import (
    HarmonyRow,
    IndexSpan,
    OccupancyTable,
    PairClassification,
    classify_pair,
    cross_tab,
    harmony_table,
    write_harmony_table,
)
from .hierarchy import (
    AperiodicEventCalendar,
    ConstantPeriod,
    EventCategory,
    Hierarchy,
    IrregularMapping,
    Rung,
    finer_than,
    granule_start,
    groups_into,
    is_periodical,
    linear_granule,
    period_length,
    validate_event_calendar,
    validate_hierarchy,
)
from .table import (
    GranularTable,
    IngestionSchema,
    augment,
    enumerate_cyclic,
    export_table,
    ingest,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
