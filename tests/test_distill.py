import io
import json
import math
import struct
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import plot_spec_document, quantile_oracle, traced_peak, write_summaries_oracle
from timegrain import (
    CellSummaries,
    ComputationError,
    CyclicDescriptor,
    DEFAULT_PROBS,
    IndexSpan,
    OccupancyTable,
    PairClassification,
    ValidationError,
    augment,
    categorize_levels,
    classify_pair,
    cross_tab,
    derive_descriptor,
    emit_plot_spec,
    letter_value_probabilities,
    pairwise_descriptor,
    recommend,
    summarize_cells,
    write_summaries,
)
from timegrain.cyclic import label_list
from timegrain.distill import GEOMETRIES, PlotSpec
from timegrain.table import GranularTable


def synthetic_table(gregorian, n_days=56, seed=3, customers=1):
    """Half-hourly table over n_days with seeded skewed values."""
    rng = np.random.default_rng(seed)
    n = n_days * 48
    index = np.tile(np.arange(n, dtype=np.int64), customers)
    keys = {"customer": tuple(f"c{1 + i // n}" for i in range(n * customers))}
    vals = rng.gamma(2.0, 0.3, size=n * customers)
    return GranularTable(
        index=index,
        timestamps=tuple(str(int(z)) for z in index),
        timestamp_column="stamp",
        keys=keys,
        measurements={"kwh": vals},
    )


def bits(v):
    return None if v is None else struct.pack("<d", v)


@st.composite
def cell_tables(draw):
    """A small table with its own cyclic columns: ties, signed zeros, NaNs, empty cells."""
    x_levels, f_levels = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    n = draw(st.integers(0, 160))
    pool = draw(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6)) + [0.0, -0.0, math.nan]
    values = draw(st.lists(st.sampled_from(pool) | st.floats(-1e6, 1e6), min_size=n, max_size=n))
    xs = draw(st.lists(st.integers(0, x_levels - 1), min_size=n, max_size=n))
    fs = draw(st.lists(st.integers(0, f_levels - 1), min_size=n, max_size=n))
    x = CyclicDescriptor("x", "circular", x_levels, labels=draw(st.sampled_from([None, 1])))
    facet = CyclicDescriptor("f", "circular", f_levels, labels=("lo", "mid", "hi")[:f_levels])
    values = np.array(values, dtype=np.float64)
    xs, fs = np.array(xs, dtype=np.int64), np.array(fs, dtype=np.int64)
    t = GranularTable(
        index=np.arange(n, dtype=np.int64), timestamps=tuple(map(str, range(n))),
        timestamp_column="z", measurements={"v": values},
        cyclic={"x": (x, xs), "f": (facet, fs)},
    )
    return t, x, facet, values, xs, fs


def per_cell_reference(values, xs, fs, x_levels, f_levels, probs, letter_values):
    """(n, mean, min, max, quantiles, values) of each cell from its own sort and ``np.quantile``."""
    out = []
    for f in range(f_levels):
        for xv in range(x_levels):
            data = values[(fs == f) & (xs == xv) & ~np.isnan(values)]
            cell = np.sort(data + 0.0)  # -0.0 counts as 0.0
            if not len(cell):
                out.append((0, None, None, None, (), data))
                continue
            grid = letter_value_probabilities(len(cell)) if letter_values else probs
            quantiles = tuple(zip(grid, np.quantile(cell, grid).tolist()))
            out.append((len(cell), float(cell.mean()), float(cell.min()), float(cell.max()),
                        quantiles, data))
    return out


@pytest.fixture(scope="module")
def cells_input(gregorian):
    h = gregorian.hierarchy
    x = pairwise_descriptor(h, "hour", "day")
    facet = pairwise_descriptor(h, "day", "week")
    t = augment(synthetic_table(gregorian), [x, facet], gregorian)
    return t, x, facet


class TestSummarize:
    def test_exact_median(self, gregorian, cells_input):
        t, x, facet = cells_input
        # same hour of the same weekday on three successive weeks: one cell
        tiny = GranularTable(
            index=np.array([0, 7 * 48, 14 * 48], dtype=np.int64),
            timestamps=("a", "b", "c"),
            timestamp_column="stamp",
            measurements={"v": np.array([3.0, 1.0, 2.0])},
        )
        tiny = augment(tiny, [x, facet], gregorian)
        cells = summarize_cells(tiny, x, facet, "v", probs=(0.5,))
        occupied = [c for c in cells if c.n]
        assert len(occupied) == 1
        assert occupied[0].quantiles == ((0.5, 2.0),)

    def test_quantile_across_the_float64_range(self, gregorian, cells_input):
        # the first cell spans -1e308..1e308, whose difference overflows; the second does not
        t, x, facet = cells_input
        tiny = GranularTable(
            index=np.array([0, 7 * 48, 2, 7 * 48 + 2, 14 * 48 + 2], dtype=np.int64),
            timestamps=("a", "b", "c", "d", "e"),
            timestamp_column="stamp",
            measurements={"v": np.array([-1e308, 1e308, 0.1, 0.7, 0.3])},
        )
        tiny = augment(tiny, [x, facet], gregorian)
        probs = (0.25, 0.5, 0.75)
        wide, narrow = [c for c in summarize_cells(tiny, x, facet, "v", probs=probs) if c.n]
        assert [v for _, v in wide.quantiles] == [-5e307, 0.0, 5e307]
        assert [v for _, v in narrow.quantiles] == np.quantile([0.1, 0.7, 0.3], probs).tolist()

    def test_default_probs(self):
        assert DEFAULT_PROBS == (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99)

    def test_quantiles_monotone(self, cells_input):
        t, x, facet = cells_input
        for cell in summarize_cells(t, x, facet, "kwh"):
            values = [v for _, v in cell.quantiles]
            assert values == sorted(values)
            if cell.n:
                assert cell.minimum <= values[0] and values[-1] <= cell.maximum

    def test_matches_sort_oracle(self, cells_input):
        t, x, facet = cells_input
        cells = summarize_cells(t, x, facet, "kwh")
        xs, fs = t.cyclic_column(x.name), t.cyclic_column(facet.name)
        vals = t.measurements["kwh"]
        for cell in cells:
            mask = (xs == cell.x_level) & (fs == cell.facet_level)
            data = vals[mask]
            assert cell.n == len(data)
            for p, got in cell.quantiles:
                assert abs(got - quantile_oracle(data, p)) <= 1e-12

    def test_marginal_consistency(self, cells_input):
        t, x, facet = cells_input
        vals = t.measurements["kwh"].copy()
        vals[::7] = math.nan
        t2 = GranularTable(
            index=t.index, timestamps=t.timestamps, timestamp_column=t.timestamp_column,
            keys=t.keys, measurements={"kwh": vals}, cyclic=t.cyclic,
        )
        cells = summarize_cells(t2, x, facet, "kwh")
        assert sum(c.n for c in cells) == int(np.sum(~np.isnan(vals)))

    def test_permutation_invariance(self, gregorian, cells_input):
        t, x, facet = cells_input
        rng = np.random.default_rng(11)
        perm = rng.permutation(len(t))
        shuffled = GranularTable(
            index=t.index[perm],
            timestamps=tuple(t.timestamps[i] for i in perm),
            timestamp_column=t.timestamp_column,
            keys={k: tuple(v[i] for i in perm) for k, v in t.keys.items()},
            measurements={m: col[perm] for m, col in t.measurements.items()},
        )
        shuffled = augment(shuffled, [x, facet], gregorian)
        assert list(summarize_cells(shuffled, x, facet, "kwh")) == list(summarize_cells(t, x, facet, "kwh"))

    def test_swap_roles_is_a_bijection(self, cells_input):
        t, x, facet = cells_input
        a = summarize_cells(t, x, facet, "kwh")
        b = summarize_cells(t, facet, x, "kwh")
        amap = {(c.facet_level, c.x_level): (c.n, c.quantiles) for c in a}
        bmap = {(c.x_level, c.facet_level): (c.n, c.quantiles) for c in b}
        assert amap == bmap

    def test_unknown_measurement(self, cells_input):
        t, x, facet = cells_input
        with pytest.raises(ValidationError) as err:
            summarize_cells(t, x, facet, "watts")
        assert err.value.kind == "unknown-measurement"

    def test_empty_probs(self, cells_input):
        t, x, facet = cells_input
        with pytest.raises(ValidationError) as err:
            summarize_cells(t, x, facet, "kwh", probs=())
        assert err.value.kind == "empty-probabilities"

    def test_missing_cyclic_column(self, gregorian, cells_input):
        _, x, facet = cells_input
        bare = synthetic_table(gregorian)
        with pytest.raises(ValidationError) as err:
            summarize_cells(bare, x, facet, "kwh")
        assert err.value.kind == "missing-column"

    def test_column_of_another_descriptor_is_not_read(self, gregorian):
        h = gregorian.hierarchy
        day_week, hour_day = pairwise_descriptor(h, "day", "week"), pairwise_descriptor(h, "hour", "day")
        t = augment(synthetic_table(gregorian, n_days=14), [day_week, hour_day], gregorian)
        decoy = derive_descriptor(day_week, [0, 1, 1, 1, 1, 1, 0], "day_week")
        assert len(t) == 672 and cross_tab(t, hour_day, decoy, gregorian).total == 672
        with pytest.raises(ValidationError) as err:
            summarize_cells(t, hour_day, decoy, "kwh")
        assert err.value.kind == "missing-column"
        assert "augment first" in str(err.value)
        assert sum(c.n for c in summarize_cells(augment(t, [decoy], gregorian), hour_day, decoy, "kwh")) == 672

    @settings(max_examples=150, deadline=None)
    @given(table=cell_tables(), letter_values=st.booleans(), probs=st.one_of(
        st.just(DEFAULT_PROBS),
        st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=1,
                 max_size=5, unique=True),
    ))
    def test_matches_per_cell_reference(self, table, letter_values, probs):
        t, x, facet, values, xs, fs = table
        cells = summarize_cells(t, x, facet, "v", probs=probs, letter_values=letter_values)
        expected = per_cell_reference(values, xs, fs, x.levels, facet.levels,
                                      tuple(sorted(probs)), letter_values)
        assert [(c.facet_level, c.x_level) for c in cells] == [
            (f, xv) for f in range(facet.levels) for xv in range(x.levels)
        ]
        assert [(c.facet_label, c.x_label) for c in cells] == [
            (fl, xl) for fl in label_list(facet) for xl in label_list(x)
        ]
        for cell, (n, mean, lo, hi, quantiles, data) in zip(cells, expected):
            assert cell.n == n
            assert [bits(cell.mean), bits(cell.minimum), bits(cell.maximum)] == [
                bits(mean), bits(lo), bits(hi)
            ]
            assert [(p, bits(q)) for p, q in cell.quantiles] == [(p, bits(q)) for p, q in quantiles]
            for p, got in cell.quantiles:
                assert abs(got - quantile_oracle(data, p)) <= 1e-9 * max(1.0, abs(got))

    def test_single_value_cell_reads_no_neighbour(self):
        # the quantile of a one-value cell interpolates it with itself, not with the next cell
        x = CyclicDescriptor("x", "circular", 2)
        facet = CyclicDescriptor("f", "circular", 1)
        t = GranularTable(
            index=np.arange(2, dtype=np.int64), timestamps=("0", "1"), timestamp_column="z",
            measurements={"v": np.array([1e308, -1e308])},
            cyclic={"x": (x, np.array([0, 1])), "f": (facet, np.array([0, 0]))},
        )
        cells = summarize_cells(t, x, facet, "v", probs=(0.5, 0.99))
        assert [c.quantiles for c in cells] == [((0.5, 1e308), (0.99, 1e308)),
                                                ((0.5, -1e308), (0.99, -1e308))]

    def test_signed_zeros_do_not_depend_on_row_order(self):
        # a 120-value cell whose middle quantiles fall among -0.0 and 0.0
        rng = np.random.default_rng(8)
        values = np.concatenate([-rng.random(30) - 1, np.full(30, -0.0), np.full(30, 0.0),
                                 rng.random(30) + 1, [2.5, -0.0, 0.0]])
        xs = np.array([0] * 120 + [1] * 3, dtype=np.int64)
        x = CyclicDescriptor("x", "circular", 2)
        facet = CyclicDescriptor("f", "circular", 1)

        def outputs(order):
            t = GranularTable(
                index=np.arange(len(order), dtype=np.int64),
                timestamps=tuple(map(str, range(len(order)))), timestamp_column="z",
                measurements={"v": values[order]},
                cyclic={"x": (x, xs[order]), "f": (facet, np.zeros(len(order), dtype=np.int64))},
            )
            cells = summarize_cells(t, x, facet, "v")
            buf = io.StringIO()
            write_summaries(cells, buf)
            return buf.getvalue(), emit_plot_spec(cells, x, facet, "v", "box").to_json()

        rng = np.random.default_rng(9)
        first = outputs(np.arange(len(values)))
        assert ",0.5,0,120\n" in first[0]
        for _ in range(40):
            assert outputs(rng.permutation(len(values))) == first


class TestLetterValues:
    def test_minimum_depth(self):
        assert letter_value_probabilities(1) == (0.5,)
        assert letter_value_probabilities(2) == (0.5,)

    def test_thousand_points(self):
        probs = letter_value_probabilities(1000)
        assert 0.5 in probs
        assert min(probs) == 2.0**-9
        assert all(any(abs(1 - p - q) < 1e-12 for q in probs) for p in probs)

    def test_summaries_adapt_per_cell(self, cells_input):
        t, x, facet = cells_input
        cells = summarize_cells(t, x, facet, "kwh", letter_values=True)
        for c in cells:
            if c.n:
                assert tuple(p for p, _ in c.quantiles) == letter_value_probabilities(c.n)


class TestCategorize:
    @pytest.mark.parametrize(
        "n,cat",
        [(1, "low"), (7, "low"), (8, "medium"), (14, "medium"),
         (15, "high"), (31, "high"), (32, "very-high"), (744, "very-high")],
    )
    def test_default_bounds(self, n, cat):
        assert categorize_levels(n) == cat

    def test_bad_levels(self):
        with pytest.raises(ValidationError):
            categorize_levels(0)


class TestRecommend:
    @pytest.fixture(scope="class")
    def classified(self, gregorian):
        h = gregorian.hierarchy
        year_2013 = IndexSpan(start=366 * 48, length=365 * 48)

        def classify(a, b):
            return classify_pair(cross_tab(year_2013, a, b, gregorian))

        return h, classify

    def test_harmony_high_levels_get_quantile_area(self, gregorian, classified):
        h, classify = classified
        x = pairwise_descriptor(h, "hour", "day")
        facet = pairwise_descriptor(h, "day", "week")
        rec = recommend(x, facet, classify(x, facet))
        assert not rec.refused
        assert rec.status == "harmony"
        assert rec.x_levels_category == "high"
        assert rec.geometries[0] == "quantile-area"
        assert any("swapping" in n for n in rec.notes)

    def test_low_levels_get_box_and_violin(self, gregorian, classified):
        h, classify = classified
        x = pairwise_descriptor(h, "day", "week")
        facet = pairwise_descriptor(h, "month", "year")
        rec = recommend(x, facet, classify(x, facet))
        assert rec.geometries[:2] == ("box", "violin-like-density")

    def test_clash_refused_with_evidence(self, gregorian, classified):
        h, classify = classified
        x = pairwise_descriptor(h, "day", "month")
        facet = pairwise_descriptor(h, "week", "month")
        rec = recommend(x, facet, classify(x, facet))
        assert rec.refused
        assert rec.geometries == ()
        assert rec.evidence
        assert "refused" in rec.to_text()

    def test_near_clash_keeps_geometry_with_warning(self, gregorian):
        h = gregorian.hierarchy
        x = pairwise_descriptor(h, "day", "year")
        facet = pairwise_descriptor(h, "day", "week")
        c = classify_pair(cross_tab(IndexSpan(length=10227 * 48), x, facet, gregorian))
        rec = recommend(x, facet, c)
        assert not rec.refused
        assert rec.geometries
        assert any(n.startswith("near-clash") for n in rec.notes)

    def test_large_cells_add_letter_values(self, smart_table, smart_calendar, smart_catalog):
        x, facet = smart_catalog["hour_day"], smart_catalog["wknd_wday"]
        c = classify_pair(cross_tab(smart_table, x, facet, smart_calendar))
        rec = recommend(x, facet, c)
        assert "letter-value-counts" in rec.geometries

    @pytest.mark.parametrize("smallest, expected", [(122, False), (123, True)])
    def test_letter_values_need_trustworthy_sixteenths(self, gregorian, smallest, expected):
        # 16 * 2 * z_0.975**2 ~ 122.9: sixteenths are trustworthy from 123 rows
        h = gregorian.hierarchy
        x = pairwise_descriptor(h, "day", "week")
        facet = pairwise_descriptor(h, "month", "year")
        counts = np.full((x.levels, facet.levels), 5000, dtype=np.int64)
        counts[3, 5] = smallest
        occ = OccupancyTable(x, facet, counts, "observed", int(counts.sum()))
        rec = recommend(x, facet, PairClassification("harmony", (), "observed", 0.0, occ))
        assert rec.geometries[:2] == ("box", "violin-like-density")
        assert ("letter-value-counts" in rec.geometries) is expected


class TestPlotSpec:
    def test_document_shape(self, cells_input):
        t, x, facet = cells_input
        cells = summarize_cells(t, x, facet, "kwh")
        spec = emit_plot_spec(cells, x, facet, "kwh", "quantile-area")
        doc = plot_spec_document(spec)
        assert doc["geometry"] == "quantile-area"
        assert doc["x"]["levels"] == 24 and doc["facet"]["levels"] == 7
        assert len(doc["cells"]) == 24 * 7
        assert doc["quantile_probabilities"] == sorted(DEFAULT_PROBS)
        for cell in doc["cells"]:
            if cell["n"]:
                assert len(cell["quantiles"]) == len(DEFAULT_PROBS)

    def test_byte_identical(self, cells_input):
        t, x, facet = cells_input
        cells = summarize_cells(t, x, facet, "kwh")
        a = emit_plot_spec(cells, x, facet, "kwh", "box").to_json()
        b = emit_plot_spec(cells, x, facet, "kwh", "box").to_json()
        assert a == b

    def test_refuses_empty_cells(self, gregorian):
        h = gregorian.hierarchy
        x = pairwise_descriptor(h, "day", "month")
        facet = pairwise_descriptor(h, "week", "month")
        t = augment(synthetic_table(gregorian, n_days=364), [x, facet], gregorian)
        cells = summarize_cells(t, x, facet, "kwh")
        with pytest.raises(ComputationError) as err:
            emit_plot_spec(cells, x, facet, "kwh", "box")
        assert err.value.kind == "clash-refusal"
        forced = emit_plot_spec(cells, x, facet, "kwh", "box", force=True)
        assert any("forced emission" in w for w in forced.head["warnings"])

    def test_density_geometry_unsupported(self, cells_input):
        t, x, facet = cells_input
        cells = summarize_cells(t, x, facet, "kwh")
        with pytest.raises(ComputationError) as err:
            emit_plot_spec(cells, x, facet, "kwh", "violin-like-density")
        assert err.value.kind == "unsupported-geometry"

    def test_box_needs_quartiles(self, cells_input):
        t, x, facet = cells_input
        cells = summarize_cells(t, x, facet, "kwh", probs=(0.1, 0.9))
        with pytest.raises(ComputationError) as err:
            emit_plot_spec(cells, x, facet, "kwh", "box")
        assert err.value.kind == "unsupported-geometry"

    def test_letter_value_geometry(self, cells_input):
        t, x, facet = cells_input
        cells = summarize_cells(t, x, facet, "kwh", letter_values=True)
        spec = emit_plot_spec(cells, x, facet, "kwh", "letter-value-counts")
        assert spec.head["geometry"] == "letter-value-counts"
        plain = summarize_cells(t, x, facet, "kwh", probs=(0.1, 0.5))
        with pytest.raises(ComputationError):
            emit_plot_spec(plain, x, facet, "kwh", "letter-value-counts")

    def test_small_cell_warnings(self, gregorian, cells_input):
        _, x, facet = cells_input
        t = augment(synthetic_table(gregorian, n_days=14), [x, facet], gregorian)
        cells = summarize_cells(t, x, facet, "kwh")
        spec = emit_plot_spec(cells, x, facet, "kwh", "quantile-area")
        assert any(w.startswith("small cell") for w in spec.head["warnings"])

    def test_unknown_geometry(self, cells_input):
        t, x, facet = cells_input
        cells = summarize_cells(t, x, facet, "kwh")
        with pytest.raises(ValidationError) as err:
            emit_plot_spec(cells, x, facet, "kwh", "sparkline")
        assert err.value.kind == "unknown-geometry"


LABELS = st.text(max_size=6) | st.sampled_from(
    ['say "hi"', "back\\slash", "naïve", "日曜日", "tab\there", "inf", "nan", "\x00", "\ud800",
     "a,b", "semi;colon", "line\nbreak", "cr\rlf", "100%", "%s%%", '"', " lead", "e1", ""]
)
# a few values that repeat, so the writers' shared formatting of equal numbers is exercised
REPEATED = st.sampled_from([0.0, -0.0, 5e-324, 1e-05, 0.1, 1.0, 2.5, 1e16, 123456789012.5])
NUMBERS = REPEATED | st.floats(allow_nan=False, allow_infinity=False)
PROBABILITIES = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
# every single character can be a delimiter; these are the ones csv treats specially
# or that a formatted number holds
DELIMITERS = st.characters() | st.sampled_from(list('0123456789.+-einfa" ,;\t\n\r%'))


@st.composite
def cell_summaries(draw, min_occupied=0):
    """``CellSummaries`` columns: empty cells, fixed and letter-value grids of mixed depth."""
    kf, kx = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    n = draw(st.lists(st.just(0) | st.integers(1, 10**12), min_size=kf * kx, max_size=kf * kx))
    for c in range(min(min_occupied, kf * kx)):
        n[c] = n[c] or 1
    grid = st.sampled_from([DEFAULT_PROBS, (0.5,), (0.25, 0.5, 0.75)]) | st.integers(
        1, 2**12).map(letter_value_probabilities) | st.lists(
        PROBABILITIES, min_size=1, max_size=4, unique=True).map(lambda ps: tuple(sorted(ps)))
    grids = [draw(grid) for c in n if c]
    occupied = len(grids)
    stats = [np.array(draw(st.lists(NUMBERS, min_size=occupied, max_size=occupied)))
             for _ in range(3)]
    probs = np.array([p for g in grids for p in g], dtype=np.float64)
    return CellSummaries(
        facet_labels=tuple(draw(st.lists(LABELS, min_size=kf, max_size=kf))),
        x_labels=tuple(draw(st.lists(LABELS, min_size=kx, max_size=kx))),
        n=np.array(n, dtype=np.int64),
        mean=stats[0], minimum=stats[1], maximum=stats[2],
        probs=probs,
        values=np.array(draw(st.lists(NUMBERS, min_size=len(probs), max_size=len(probs))),
                        dtype=np.float64),
        offsets=np.concatenate(([0], np.cumsum([len(g) for g in grids], dtype=np.int64))),
    )


@st.composite
def plot_specs(draw, min_occupied=0):
    """A ``PlotSpec`` whose head is shaped like ``emit_plot_spec``'s, with arbitrary labels and numbers."""

    def axis():
        levels = draw(st.integers(0, 4))
        return {
            "descriptor": draw(LABELS), "kind": draw(st.sampled_from(["circular", "aperiodic"])),
            "levels": levels, "labels": draw(st.lists(LABELS, min_size=levels, max_size=levels)),
        }

    head = {
        "plot_spec_version": 1, "response": draw(LABELS),
        "geometry": draw(st.sampled_from(GEOMETRIES)), "x": axis(), "facet": axis(),
        "quantile_probabilities": draw(st.lists(NUMBERS, max_size=4)),
        "warnings": draw(st.lists(LABELS, max_size=3)),
    }
    return PlotSpec(head, draw(cell_summaries(min_occupied)))


def with_columns(s, **columns):
    return CellSummaries(**{**{f.name: getattr(s, f.name) for f in fields(s)}, **columns})


class TestPlotSpecJson:
    @settings(max_examples=200, deadline=None)
    @given(spec=plot_specs())
    def test_equals_indented_json_dumps(self, spec):
        doc = plot_spec_document(spec)
        assert spec.to_json() == json.dumps(doc, indent=2, allow_nan=False) + "\n"

    @settings(max_examples=150, deadline=None)
    @given(spec=plot_specs(min_occupied=1), data=st.data())
    def test_non_finite_number_raises_like_json_dumps(self, spec, data):
        # one or two non-finite numbers: the message names the first in document order
        s = spec.cells
        columns = {name: getattr(s, name).copy() for name in ("mean", "minimum", "maximum", "values")}
        for _ in range(data.draw(st.integers(1, 2))):
            col = columns[data.draw(st.sampled_from(sorted(columns)))]
            col[data.draw(st.integers(0, len(col) - 1))] = data.draw(
                st.sampled_from([math.inf, -math.inf, math.nan]))
        spec = PlotSpec(spec.head, with_columns(s, **columns))
        with pytest.raises(ValueError) as want:
            json.dumps(plot_spec_document(spec), indent=2, allow_nan=False)
        with pytest.raises(ValueError) as got:
            spec.to_json()
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("letter_values", [False, True])
    def test_emitted_spec_equals_json_dumps(self, gregorian, letter_values):
        h = gregorian.hierarchy
        x = pairwise_descriptor(h, "day", "month")
        facet = pairwise_descriptor(h, "day", "week")
        t = augment(synthetic_table(gregorian, n_days=120), [x, facet], gregorian)
        cells = summarize_cells(t, x, facet, "kwh", letter_values=letter_values)
        assert any(c.n == 0 for c in cells) and any(c.n for c in cells)
        spec = emit_plot_spec(cells, x, facet, "kwh", "quantile-area", force=True)
        doc = plot_spec_document(spec)
        assert spec.to_json() == json.dumps(doc, indent=2, allow_nan=False) + "\n"


class TestSummaryExport:
    @settings(max_examples=300, deadline=None)
    @given(summaries=cell_summaries(), delimiter=DELIMITERS)
    def test_equals_row_by_row_csv_writer(self, summaries, delimiter):
        got, want = io.StringIO(), io.StringIO()
        write_summaries(summaries, got, delimiter)
        write_summaries_oracle(summaries, want, delimiter)
        assert got.getvalue() == want.getvalue()

    @pytest.mark.parametrize("delimiter", [",", ";", "\t", "1", "e", "."])
    def test_file_equals_row_by_row_csv_writer(self, cells_input, tmp_path, delimiter):
        t, x, facet = cells_input
        cells = summarize_cells(t, x, facet, "kwh", letter_values=True)
        write_summaries(cells, tmp_path / "got.csv", delimiter)
        with open(tmp_path / "want.csv", "w", encoding="utf-8", newline="") as handle:
            write_summaries_oracle(cells, handle, delimiter)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_bad_delimiter_leaves_no_file(self, cells_input, tmp_path):
        t, x, facet = cells_input
        with pytest.raises(ValidationError) as err:
            write_summaries(summarize_cells(t, x, facet, "kwh"), tmp_path / "s.csv", ";;")
        assert err.value.kind == "bad-delimiter"
        assert not (tmp_path / "s.csv").exists()


def test_summary_export_format(cells_input):
    t, x, facet = cells_input
    cells = summarize_cells(t, x, facet, "kwh", probs=(0.5,))
    buf = io.StringIO()
    write_summaries(cells, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "facet,x,prob,value,n"
    assert len(lines) == 1 + 24 * 7


def test_summary_export_keeps_empty_cells(gregorian):
    h = gregorian.hierarchy
    x = pairwise_descriptor(h, "day", "month")
    facet = pairwise_descriptor(h, "week", "month")
    t = augment(synthetic_table(gregorian, n_days=364), [x, facet], gregorian)
    cells = summarize_cells(t, x, facet, "kwh", probs=(0.5,))
    buf = io.StringIO()
    write_summaries(cells, buf)
    lines = buf.getvalue().splitlines()
    empties = [ln for ln in lines[1:] if ln.endswith(",0")]
    # each empty cell has exactly one row, "facet,x,,,0"
    assert empties == [f"{c.facet_label},{c.x_label},,,0" for c in cells if c.n == 0]
    assert any(ln.split(",")[2] == "" for ln in empties)


@pytest.mark.parametrize("head, columns, want", [
    # a probability is a number of the document too
    ({}, {"probs": [0.5, math.inf, 0.75], "maximum": [2.0, -math.inf]}, "-inf"),
    ({}, {"probs": [0.5, math.nan, 0.75], "values": [1.0, math.inf, 2.0]}, "nan"),
    # the head comes before every cell
    ({"response": math.nan}, {"mean": [math.inf, 1.0]}, "nan"),
])
def test_non_finite_number_is_named_in_document_order(head, columns, want):
    s = CellSummaries(
        facet_labels=("f",), x_labels=("a", "b"), n=np.array([2, 3]),
        mean=np.array([1.0, 2.0]), minimum=np.array([0.5, 1.0]), maximum=np.array([2.0, 3.0]),
        probs=np.array([0.5, 0.25, 0.75]), values=np.array([1.0, 1.5, 2.5]),
        offsets=np.array([0, 1, 3]),
    )
    spec = PlotSpec({"plot_spec_version": 1, **head},
                    with_columns(s, **{k: np.array(v) for k, v in columns.items()}))
    with pytest.raises(ValueError) as err:
        spec.to_json()
    assert str(err.value) == f"Out of range float values are not JSON compliant: {want}"


@pytest.mark.parametrize("columns, want", [
    # cell b's quantiles are entries 1 and 2 of the values
    ({"values": [1.0, 1.5, math.inf]}, "quantile of cell (x=b"),
    # the first cell is named, whatever its statistic
    ({"maximum": [2.0, math.inf], "values": [math.nan, 1.5, 2.5]}, "quantile of cell (x=a"),
    # within a cell, the mean comes before min, max and quantiles
    ({"mean": [1.0, -math.inf], "minimum": [0.5, -math.inf]}, "mean of cell (x=b"),
])
def test_non_finite_statistic_names_its_first_cell(columns, want):
    s = CellSummaries(
        facet_labels=("f",), x_labels=("a", "b"), n=np.array([2, 3]),
        mean=np.array([1.0, 2.0]), minimum=np.array([0.5, 1.0]), maximum=np.array([2.0, 3.0]),
        probs=np.array([0.5, 0.25, 0.75]), values=np.array([1.0, 1.5, 2.5]),
        offsets=np.array([0, 1, 3]),
    )
    x, facet = CyclicDescriptor("x", "circular", 2), CyclicDescriptor("f", "circular", 1)
    with pytest.raises(ComputationError) as err:
        emit_plot_spec(with_columns(s, **{k: np.array(v) for k, v in columns.items()}),
                       x, facet, "v", "quantile-area")
    assert err.value.kind == "non-finite-statistic"
    assert err.value.message.startswith(f"the {want}, facet=f) is not finite")


def test_signed_zeros_are_written_apart():
    # each column holds -0.0 and 0.0, which are equal as values but not as bit patterns
    s = CellSummaries(
        facet_labels=("f",), x_labels=("a", "b"), n=np.array([2, 3]),
        mean=np.array([0.0, -0.0]), minimum=np.array([-0.0, 0.0]), maximum=np.array([0.0, -0.0]),
        probs=np.array([0.5, 0.25, 0.75]), values=np.array([-0.0, 0.0, -0.0]),
        offsets=np.array([0, 1, 3]),
    )
    spec = PlotSpec({"plot_spec_version": 1}, s)
    text = spec.to_json()
    assert text == json.dumps(plot_spec_document(spec), indent=2, allow_nan=False) + "\n"
    cells = json.loads(text)["cells"]
    assert [str(c[k]) for c in cells for k in ("mean", "min", "max")] == [
        "0.0", "-0.0", "0.0", "-0.0", "0.0", "-0.0"]
    assert [str(v) for c in cells for _, v in c["quantiles"]] == ["-0.0", "0.0", "-0.0"]
    buf = io.StringIO()
    write_summaries(s, buf)
    assert buf.getvalue() == "facet,x,prob,value,n\nf,a,0.5,-0,2\nf,b,0.25,0,3\nf,b,0.75,-0,3\n"


@pytest.mark.parametrize("n", [[0, 4, 2], [4, 0, 2], [4, 2, 0], [4, 2, 3]])
def test_occupied_cell_with_no_quantile_pair_equals_json_dumps(n):
    # ``summarize_cells`` gives every occupied cell a pair, but the columns can hold none;
    # the head holds ``%`` as text, which no step may read as a format
    occupied = sum(1 for c in n if c)
    widths = [0, 2, 1][:occupied]
    s = CellSummaries(
        facet_labels=("%s",), x_labels=("a%", "%%b", "c"), n=np.array(n),
        mean=np.linspace(1.0, 2.0, occupied), minimum=np.zeros(occupied),
        maximum=np.full(occupied, 3.5),
        probs=np.array([0.25, 0.75, 0.5][:sum(widths)]),
        values=np.array([1.0, 2.0, 1.5][:sum(widths)]),
        offsets=np.concatenate(([0], np.cumsum(widths))),
    )
    spec = PlotSpec({"plot_spec_version": 1, "response": "100% %(kwh)s", "warnings": ["%d"]}, s)
    text = spec.to_json()
    assert text == json.dumps(plot_spec_document(spec), indent=2, allow_nan=False) + "\n"
    assert [c["quantiles"] for c in json.loads(text)["cells"] if c["n"]][0] == []


def test_plot_spec_memory_holds_about_three_texts():
    # hour_month x day_week over two years of half hours for two customers, readings with
    # three decimals: 5,208 cells and 36,456 values, the largest pair of the smart-meter data
    rng = np.random.default_rng(11)
    rows = 2 * 731 * 48
    x = CyclicDescriptor("hour_month", "circular", 744)
    facet = CyclicDescriptor("day_week", "circular", 7)
    t = GranularTable(
        index=np.arange(rows, dtype=np.int64), timestamps=("",) * rows, timestamp_column="z",
        measurements={"kwh": rng.gamma(2.0, 0.3, rows).round(3)},
        cyclic={"hour_month": (x, rng.integers(0, 744, rows)),
                "day_week": (facet, rng.integers(0, 7, rows))},
    )
    summaries = summarize_cells(t, x, facet, "kwh")
    assert (len(summaries), len(summaries.values)) == (5_208, 36_456)
    spec = PlotSpec({"plot_spec_version": 1}, summaries)
    size = len(spec.to_json())
    # the text, its template and the text of each distinct number. A writer that kept its
    # joined number column, slot positions and text array alive through the ``%`` peaked at
    # 3.65 times the text; one that held a float per number, and formatted it in the ``%``,
    # just under 3 times
    assert traced_peak(spec.to_json) <= 3 * size
