import timegrain

# The package's public names: adding, removing or renaming one changes this list.
PUBLIC_NAMES = [
    "APERIODIC", "AperiodicEventCalendar", "CIRCULAR", "Calendar", "CellSummaries", "CellSummary",
    "ComputationError", "ConstantPeriod", "CyclicDescriptor", "DEFAULT_PROBS", "DataError",
    "EventCategory", "GranularTable", "HarmonyRow", "Hierarchy", "IndexSpan",
    "IngestionSchema", "IrregularMapping", "OccupancyTable",
    "PairClassification", "PlotSpec", "QUASI_CIRCULAR", "Recommendation", "Rung",
    "TimegrainError", "ValidationError", "aperiodic_descriptor", "apply_labels", "augment",
    "calfile", "categorize_levels", "classify_pair", "cross_tab", "cyclic",
    "derive_descriptor", "distill", "emit_plot_spec", "enumerate_cyclic", "errors",
    "evaluate", "export_table", "format_calendar", "granule_start", "harmony", "harmony_table",
    "hierarchy", "ingest",
    "letter_value_probabilities", "linear_granule", "load_calendar", "pairwise_descriptor",
    "parse_calendar", "period_length", "recommend", "save_calendar",
    "summarize_cells", "table", "write_harmony_table", "write_summaries",
]


def test_public_names_are_pinned():
    assert sorted(timegrain.__all__) == PUBLIC_NAMES
