import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowbalance.dataset import (
    DEFAULT_PROFILE,
    FLOW_FEATURES,
    Dataset,
    FlowProfile,
    Rule,
    SamplingScheme,
    apply_scheme,
    generate_flows,
    load_csv,
    partition,
    save_csv,
    standard_schemes,
)
from flowbalance.errors import (
    EmptyDatasetError,
    InsufficientRowsError,
    ParameterError,
    ParseError,
    SchemaError,
    UndefinedImbalanceError,
)


def small_dataset(labels):
    labels = np.asarray(labels, dtype=np.int64)
    rng = np.random.default_rng(7)
    feats = rng.random((labels.size, 3)) + 1.0
    return Dataset(feats, labels, ("a", "b", "c"))


class TestPartition:
    def test_balanced_ir_is_one(self):
        part = partition(small_dataset([1, 1, 1, 0, 0, 0]))
        assert part.n_minority == 3
        assert part.n_majority == 3
        assert part.ir == 1.0

    def test_one_to_four(self):
        part = partition(small_dataset([1, 0, 0, 0, 0]))
        assert part.ir == pytest.approx(0.25)

    def test_no_majority_raises(self):
        with pytest.raises(UndefinedImbalanceError):
            partition(small_dataset([1, 1, 1]))

    def test_no_minority_is_fine(self):
        part = partition(small_dataset([0, 0, 0]))
        assert part.n_minority == 0
        assert part.ir == 0.0

    def test_indices_point_at_right_labels(self):
        ds = small_dataset([0, 1, 0, 1, 1, 0, 0])
        part = partition(ds)
        assert np.all(ds.labels[part.minority_idx] == 1)
        assert np.all(ds.labels[part.majority_idx] == 0)
        assert part.n_minority + part.n_majority == ds.n


class TestSchemes:
    def source(self, n_min=3000, n_maj=30000):
        labels = np.concatenate([np.ones(n_min, dtype=np.int64),
                                 np.zeros(n_maj, dtype=np.int64)])
        rng = np.random.default_rng(11)
        feats = rng.random((labels.size, 2))
        return Dataset(feats, labels, ("x", "y"))

    def test_train2_balances(self):
        ds = self.source()
        scheme = standard_schemes(partition(ds))["train2"]
        out = partition(apply_scheme(ds, scheme, seed=1))
        assert out.n_minority == 3000
        assert out.n_majority == 3000

    def test_train3_halves_minority(self):
        ds = self.source()
        scheme = standard_schemes(partition(ds))["train3"]
        out = partition(apply_scheme(ds, scheme, seed=1))
        assert out.n_minority == 1500
        assert out.n_majority == 3000

    def test_train4_keeps_all_minority(self):
        ds = self.source()
        scheme = standard_schemes(partition(ds))["train4"]
        out = partition(apply_scheme(ds, scheme, seed=1))
        assert out.n_minority == 3000
        assert out.n_majority == 6000

    def test_train5_present_only_when_source_is_large(self):
        big = standard_schemes(partition(self.source()))
        assert "train5" in big
        out = partition(apply_scheme(self.source(), big["train5"], seed=0))
        assert (out.n_minority, out.n_majority) == (1000, 10000)
        small = standard_schemes(partition(self.source(n_min=200, n_maj=5000)))
        assert "train5" not in small

    def test_infeasible_count_raises(self):
        ds = self.source(n_min=10, n_maj=15)
        scheme = SamplingScheme("broke", Rule("all"), Rule("count", 100), 0.1)
        with pytest.raises(InsufficientRowsError):
            apply_scheme(ds, scheme, seed=0)

    def test_apply_is_deterministic(self):
        ds = self.source()
        scheme = standard_schemes(partition(ds))["train2"]
        a = apply_scheme(ds, scheme, seed=42)
        b = apply_scheme(ds, scheme, seed=42)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_draw_is_without_replacement(self):
        ds = self.source(n_min=50, n_maj=500)
        scheme = SamplingScheme("s", Rule("all"), Rule("count", 400), 0.125)
        out = apply_scheme(ds, scheme, seed=3)
        # all rows distinct <=> every feature row appears at most once
        rows = {tuple(r) for r in out.features}
        assert len(rows) == out.n

    def test_bad_rules_rejected(self):
        with pytest.raises(ParameterError):
            Rule("fraction", 0.0)
        with pytest.raises(ParameterError):
            Rule("fraction", 1.5)
        with pytest.raises(ParameterError):
            Rule("count", 0)
        with pytest.raises(ParameterError):
            Rule("percent", 0.5)

    @given(
        n_min=st.integers(min_value=4, max_value=60),
        maj_extra=st.integers(min_value=0, max_value=120),
        frac=st.floats(min_value=0.1, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_scheme_counts_match_rules(self, n_min, maj_extra, frac, seed):
        """Output class counts equal the resolved rule counts exactly."""
        n_maj = n_min + maj_extra
        ds = self.source(n_min=n_min, n_maj=n_maj)
        want_min = int(round(frac * n_min))
        if want_min < 1:
            return
        scheme = SamplingScheme("p", Rule("fraction", frac),
                                Rule("count", n_maj), want_min / n_maj)
        out = partition(apply_scheme(ds, scheme, seed=seed))
        assert out.n_minority == want_min
        assert out.n_majority == n_maj


class TestGenerateFlows:
    def test_balanced_counts(self):
        part = partition(generate_flows(6000, ir=1.0, seed=0))
        assert (part.n_minority, part.n_majority) == (3000, 3000)

    def test_one_to_ten_counts(self):
        part = partition(generate_flows(11000, ir=0.1, seed=0))
        assert (part.n_minority, part.n_majority) == (1000, 10000)

    def test_tput_is_size_over_duration(self):
        ds = generate_flows(2000, ir=0.5, seed=3)
        size = ds.column("size")
        durat = ds.column("durat")
        tput = ds.column("tput")
        assert np.allclose(tput, size / durat, rtol=1e-12)

    def test_feature_names_and_positivity(self):
        ds = generate_flows(500, ir=0.5, seed=9)
        assert ds.feature_names == FLOW_FEATURES
        assert np.all(ds.features > 0)
        assert np.all(np.isfinite(ds.features))

    def test_deterministic_per_seed(self):
        a = generate_flows(1000, ir=0.2, seed=5)
        b = generate_flows(1000, ir=0.2, seed=5)
        c = generate_flows(1000, ir=0.2, seed=6)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        assert not np.array_equal(a.features, c.features)

    def test_ir_out_of_range(self):
        with pytest.raises(ParameterError):
            generate_flows(1000, ir=0.0, seed=0)
        with pytest.raises(ParameterError):
            generate_flows(1000, ir=1.5, seed=0)
        with pytest.raises(ParameterError):
            generate_flows(5, ir=0.5, seed=0)

    def test_slow_rows_are_slower(self):
        """Class-conditional throughput medians must be ordered."""
        ds = generate_flows(4000, ir=1.0, seed=2)
        tput = ds.column("tput")
        slow = np.median(tput[ds.labels == 1])
        normal = np.median(tput[ds.labels == 0])
        assert slow < normal

    def test_separation_widens_the_gap(self):
        tight = FlowProfile(separation=0.2)
        wide = FlowProfile(separation=2.0)
        gap = []
        for profile in (tight, wide):
            ds = generate_flows(4000, ir=1.0, seed=4, profile=profile)
            lt = np.log10(ds.column("tput"))
            gap.append(np.median(lt[ds.labels == 0]) - np.median(lt[ds.labels == 1]))
        assert gap[0] < gap[1]

    @given(
        n_total=st.integers(min_value=10, max_value=400),
        ir=st.floats(min_value=0.01, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_minority_count_formula(self, n_total, ir, seed):
        ds = generate_flows(n_total, ir=ir, seed=seed)
        n_min = int(round(n_total * ir / (1 + ir)))
        assert int(ds.labels.sum()) == n_min
        assert ds.n == n_total


class TestCsv:
    def test_four_row_readback(self, tmp_path):
        path = tmp_path / "four.csv"
        path.write_text(
            "size,durat,tput,label\n"
            "100.0,2.0,50.0,1\n"
            "200.0,4.0,50.0,0\n"
            "10.0,1.0,10.0,1\n"
            "80.0,2.0,40.0,0\n"
        )
        ds = load_csv(path)
        assert ds.n == 4
        assert ds.feature_names == ("size", "durat", "tput")
        assert np.array_equal(ds.labels, [1, 0, 1, 0])
        assert ds.features[1, 0] == 200.0

    def test_threshold_labels(self, tmp_path):
        path = tmp_path / "thresh.csv"
        path.write_text("tput,extra\n10.0,1.0\n20.0,1.0\n30.0,1.0\n")
        ds = load_csv(path, slow_threshold=5.0)
        assert np.array_equal(ds.labels, [0, 0, 0])
        ds = load_csv(path, slow_threshold=25.0)
        assert np.array_equal(ds.labels, [1, 1, 0])

    def test_round_trip_is_bit_identical(self, tmp_path):
        ds = generate_flows(1000, ir=0.25, seed=13)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        save_csv(ds, first)
        back = load_csv(first)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
        save_csv(back, second)
        assert first.read_bytes() == second.read_bytes()

    def test_origin_column_is_ignored_on_load(self, tmp_path):
        ds = generate_flows(50, ir=0.5, seed=1)
        path = tmp_path / "o.csv"
        save_csv(ds, path, origin=ds.labels)
        back = load_csv(path)
        assert back.feature_names == ds.feature_names
        assert np.array_equal(back.features, ds.features)

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "nolabel.csv"
        path.write_text("a,b\n1.0,2.0\n")
        with pytest.raises(SchemaError):
            load_csv(path)

    def test_parse_error_reports_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,label\n1.0,2.0,0\n1.0,oops,1\n")
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert err.value.row == 1
        assert err.value.column == "b"

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_reports_row_and_column(self, tmp_path, cell):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"a,b,label\n1.0,2.0,0\n1.0,{cell},1\n")
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert err.value.row == 1
        assert err.value.column == "b"

    def test_bad_label_value(self, tmp_path):
        path = tmp_path / "badlabel.csv"
        path.write_text("a,label\n1.0,2\n")
        with pytest.raises(ParseError):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(EmptyDatasetError):
            load_csv(path)
        path.write_text("a,label\n")
        with pytest.raises(EmptyDatasetError):
            load_csv(path)


class TestDatasetType:
    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ParameterError):
            Dataset(np.ones((3, 2)), np.zeros(4, dtype=np.int64), ("a", "b"))

    def test_rejects_bad_labels(self):
        with pytest.raises(ParameterError):
            Dataset(np.ones((2, 2)), np.array([0, 2]), ("a", "b"))

    def test_rejects_non_finite_features(self):
        with pytest.raises(ParameterError):
            Dataset(np.array([[np.nan, 1.0], [np.inf, 2.0]]), np.array([0, 1]), ("a", "b"))
        with pytest.raises(ParameterError):
            Dataset(np.array([[0.0, -np.inf], [1.0, 2.0]]), np.array([0, 1]), ("a", "b"))

    def test_features_are_readonly(self):
        ds = small_dataset([0, 1])
        with pytest.raises(ValueError):
            ds.features[0, 0] = 5.0

    def test_subset_keeps_names(self):
        ds = small_dataset([0, 1, 0, 1])
        sub = ds.subset([1, 3])
        assert sub.n == 2
        assert np.all(sub.labels == 1)
        assert sub.feature_names == ds.feature_names

    def test_unimodal_features_are_generated_columns(self):
        for name in DEFAULT_PROFILE.unimodal_features:
            assert name in FLOW_FEATURES
