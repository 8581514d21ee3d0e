import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import quantile_oracle
from timegrain import (
    ComputationError,
    DEFAULT_PROBS,
    IndexSpan,
    OccupancyTable,
    PairClassification,
    ValidationError,
    augment,
    categorize_levels,
    classify_pair,
    cross_tab,
    emit_plot_spec,
    letter_value_probabilities,
    pairwise_descriptor,
    recommend,
    summarize_cells,
    write_summaries,
)
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
        assert summarize_cells(shuffled, x, facet, "kwh") == summarize_cells(t, x, facet, "kwh")

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

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=60),
        p=st.floats(min_value=0.001, max_value=0.999),
    )
    def test_quantile_oracle_property(self, data, p):
        got = float(np.quantile(np.asarray(data), p))
        assert abs(got - quantile_oracle(data, p)) <= 1e-9 * max(1.0, abs(got))


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
        assert categorize_levels(n).category == cat

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
        doc = spec.document
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
        assert any("forced emission" in w for w in forced.document["warnings"])

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
        assert spec.document["geometry"] == "letter-value-counts"
        plain = summarize_cells(t, x, facet, "kwh", probs=(0.1, 0.5))
        with pytest.raises(ComputationError):
            emit_plot_spec(plain, x, facet, "kwh", "letter-value-counts")

    def test_small_cell_warnings(self, gregorian, cells_input):
        _, x, facet = cells_input
        t = augment(synthetic_table(gregorian, n_days=14), [x, facet], gregorian)
        cells = summarize_cells(t, x, facet, "kwh")
        spec = emit_plot_spec(cells, x, facet, "kwh", "quantile-area")
        assert any(w.startswith("small cell") for w in spec.document["warnings"])

    def test_unknown_geometry(self, cells_input):
        t, x, facet = cells_input
        cells = summarize_cells(t, x, facet, "kwh")
        with pytest.raises(ValidationError) as err:
            emit_plot_spec(cells, x, facet, "kwh", "sparkline")
        assert err.value.kind == "unknown-geometry"


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
    assert empties and all(",,," not in ln or True for ln in empties)
    assert any(ln.split(",")[2] == "" for ln in empties)
