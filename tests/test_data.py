"""CSV loading, splitting, windows, and synthetic generators."""

import re

import numpy as np
import pytest

from twins import data as dt


def write(tmp_path, text, name="t.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestLoadCsv:
    def test_small_numeric(self, tmp_path):
        p = write(tmp_path, "a,b\n1,4\n2,5\n3,6\n")
        raw = dt.load_csv(p)
        assert raw.names == ["a", "b"]
        np.testing.assert_array_equal(raw.values, [[1, 2, 3], [4, 5, 6]])

    def test_date_column_dropped(self, tmp_path):
        p = write(tmp_path, "date,x\n2016-07-01,1.5\n2016-07-02,2.5\n")
        raw = dt.load_csv(p)
        assert raw.names == ["x"]
        np.testing.assert_array_equal(raw.values, [[1.5, 2.5]])

    def test_first_column_with_a_number_is_kept(self, tmp_path):
        # one text cell at the top does not make a date column of the rest
        p = write(tmp_path, "a,b\nx,1\n2,3\n4,5\n")
        with pytest.raises(ValueError, match=re.escape(
                "non-numeric cell at row 2, column 1: 'x'")):
            dt.load_csv(p)

    def test_non_numeric_cell_names_row(self, tmp_path):
        p = write(tmp_path, "a\n1\n2\n3\nbad\n")
        with pytest.raises(ValueError, match="row 5"):
            dt.load_csv(p)

    def test_ragged_row(self, tmp_path):
        p = write(tmp_path, "a,b\n1,2\n3\n")
        with pytest.raises(ValueError, match="ragged row 3"):
            dt.load_csv(p)

    def test_empty_first_row(self, tmp_path):
        p = write(tmp_path, "a,b\n\n1,2\n")
        with pytest.raises(ValueError, match="ragged row 2: 0 cells, expected 2"):
            dt.load_csv(p)

    def test_missing_value(self, tmp_path):
        p = write(tmp_path, "a,b\n1,2\n3,\n")
        with pytest.raises(ValueError, match="missing value at row 3"):
            dt.load_csv(p)
        # a first column with no cell filled is no date column
        p = write(tmp_path, "a,b\n,1\n,2\n,3\n")
        with pytest.raises(ValueError,
                           match="missing value at row 2, column 1$"):
            dt.load_csv(p)

    @pytest.mark.parametrize("cell", ["nan", "-nan", "+nan", "inf",
                                      "-Infinity", "1e400"])
    def test_non_finite_value(self, tmp_path, cell):
        p = write(tmp_path, f"a,b\n1,2\n3, {cell}\n")
        with pytest.raises(ValueError, match=re.escape(
                f"non-finite value at row 3, column 2: '{cell}'")):
            dt.load_csv(p)

    def test_empty_file(self, tmp_path):
        with pytest.raises(ValueError):
            dt.load_csv(write(tmp_path, ""))

    def test_blank_header_line(self, tmp_path):
        p = write(tmp_path, "\n\n")
        with pytest.raises(ValueError, match=f"^{re.escape(p)}: blank header line$"):
            dt.load_csv(p)


class TestSplit:
    def raw(self, N=10, C=2, seed=0):
        vals = np.random.default_rng(seed).normal(size=(C, N)) * 3 + 1
        return dt.RawSeries([f"v{i}" for i in range(C)], vals)

    def test_sizes(self):
        ds = dt.split_standardize(self.raw(10))
        assert ds.train.shape[1] == 6
        assert ds.val.shape[1] == 2
        assert ds.test.shape[1] == 2

    def test_train_standardized(self):
        ds = dt.split_standardize(self.raw(500, seed=1))
        assert np.all(np.abs(ds.train.mean(axis=1)) < 1e-9)
        assert np.all(np.abs(ds.train.std(axis=1) - 1.0) < 1e-9)

    def test_constant_channel(self):
        raw = dt.RawSeries(["c"], np.full((1, 20), 7.0))
        ds = dt.split_standardize(raw)
        np.testing.assert_array_equal(ds.train, np.zeros((1, 12)))

    def test_destandardize_round_trip(self):
        raw = self.raw(50, seed=2)
        ds = dt.split_standardize(raw)
        np.testing.assert_allclose(ds.destandardize(ds.train),
                                   raw.values[:, :30], atol=1e-9)

    def test_chronological_contiguous(self):
        raw = dt.RawSeries(["v"], np.arange(10, dtype=float).reshape(1, 10))
        ds = dt.split_standardize(raw)
        rebuilt = np.concatenate(
            [ds.destandardize(s) for s in (ds.train, ds.val, ds.test)], axis=1)
        np.testing.assert_allclose(rebuilt, raw.values, atol=1e-9)

    def test_bad_ratios(self):
        with pytest.raises(ValueError):
            dt.split_standardize(self.raw(10), ratios=(0.8, 0.3, 0.2))

    def test_empty_split(self):
        with pytest.raises(ValueError):
            dt.split_standardize(self.raw(3))

    def test_affine_invariance(self):
        raw = self.raw(100, seed=3)
        moved = dt.RawSeries(raw.names, raw.values * 10 + 100)
        a = dt.split_standardize(raw)
        b = dt.split_standardize(moved)
        np.testing.assert_allclose(a.train, b.train, atol=1e-9)
        np.testing.assert_allclose(a.test, b.test, atol=1e-9)


class TestWindows:
    def test_count_formula(self):
        vals = np.arange(10, dtype=float).reshape(1, 10)
        wb = dt.make_windows(vals, L=4, T=2)
        assert wb.inputs.shape == (5, 1, 1, 4)
        assert wb.targets.shape == (5, 1, 2)

    def test_too_short(self):
        with pytest.raises(ValueError):
            dt.make_windows(np.zeros((1, 5)), L=4, T=2)

    def test_target_follows_input(self):
        vals = np.arange(12, dtype=float).reshape(1, 12)
        wb = dt.make_windows(vals, L=3, T=2)
        for i in range(wb.inputs.shape[0]):
            assert wb.targets[i, 0, 0] == wb.inputs[i, 0, 0, -1] + 1

    def test_unit_stride_shift(self):
        vals = np.random.default_rng(4).normal(size=(2, 20))
        wb = dt.make_windows(vals, L=5, T=3)
        np.testing.assert_array_equal(wb.inputs[1, 0, :, :-1],
                                      wb.inputs[0, 0, :, 1:])


def loop_windows(values, L, T):
    """Reference: one window at a time, as make_windows used to build them."""
    count = values.shape[1] - L - T + 1
    inputs = np.empty((count, 1, values.shape[0], L))
    targets = np.empty((count, values.shape[0], T))
    for s in range(count):
        inputs[s, 0] = values[:, s:s + L]
        targets[s] = values[:, s + L:s + L + T]
    return inputs, targets


class TestWindowsMatchLoop:
    @pytest.mark.parametrize("L", [1, 3, 7])
    def test_bit_identical(self, L):
        vals = np.random.default_rng(5).normal(size=(3, 41))
        wb = dt.make_windows(vals, L=L, T=4)
        inputs, targets = loop_windows(vals, L, 4)
        assert wb.inputs.tobytes() == inputs.tobytes()
        assert wb.targets.tobytes() == targets.tobytes()
        assert wb.inputs.flags.c_contiguous and wb.inputs.flags.writeable
        assert wb.targets.flags.c_contiguous and wb.targets.flags.writeable
        assert not np.shares_memory(wb.inputs, vals)

    def test_too_short_message(self):
        with pytest.raises(ValueError,
                           match=r"^split of length 5 too short for L=4, T=2$"):
            dt.make_windows(np.zeros((1, 5)), L=4, T=2)


class TestSynth:
    def test_lag_exact_shift(self):
        raw = dt.synth_multiperiod(200, 2, [(16, 1.0, None)], lag_per_channel=5)
        np.testing.assert_allclose(raw.values[1, 5:], raw.values[0, :-5],
                                   atol=1e-12)

    def test_active_range_silent_outside(self):
        raw = dt.synth_multiperiod(512, 1, [(6, 1.0, (180, 330))])
        assert np.all(raw.values[0, :180] == 0.0)
        assert np.all(raw.values[0, 330:] == 0.0)
        assert np.abs(raw.values[0, 180:330]).max() > 0.5

    def test_deterministic(self):
        a = dt.synth_multiperiod(100, 2, [(8, 1.0, None)], noise_std=0.3, seed=9)
        b = dt.synth_multiperiod(100, 2, [(8, 1.0, None)], noise_std=0.3, seed=9)
        np.testing.assert_array_equal(a.values, b.values)

    def test_nested_periods_sum(self):
        raw = dt.synth_multiperiod(64, 1, [(8, 1.0, None), (32, 0.5, None)])
        t = np.arange(64)
        expect = np.sin(2 * np.pi * t / 8) + 0.5 * np.sin(2 * np.pi * t / 32)
        np.testing.assert_allclose(raw.values[0], expect, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            dt.synth_multiperiod(100, 1, [])
        with pytest.raises(ValueError):
            dt.synth_multiperiod(100, 1, [(1, 1.0, None)])

    @pytest.mark.parametrize("kw, message", [
        ({"channels": 0}, "channels must be >= 1, got 0"),
        ({"noise_std": -1.0}, "noise std must be >= 0, got -1.0"),
        ({"components": [(8, 1.0, (200, 100))]}, "active interval 200-100"),
        ({"components": [(8, 1.0, (50, 50))]}, "active interval 50-50"),
        ({"noise_std": float("nan")}, "noise std must be finite, got nan"),
        ({"noise_std": float("inf")}, "noise std must be finite, got inf"),
        ({"components": [(float("nan"), 1.0, None)]},
         "component period must be finite, got nan"),
        ({"components": [(float("inf"), 1.0, None)]},
         "component period must be finite, got inf"),
        ({"components": [(8, float("inf"), None)]},
         "component amplitude must be finite, got inf"),
        ({"components": [(8, float("-inf"), None)]},
         "component amplitude must be finite, got -inf"),
        ({"components": [(8, float("nan"), None)]},
         "component amplitude must be finite, got nan"),
        ({"length": 0}, "length must be >= 1, got 0"),
        ({"length": -5}, "length must be >= 1, got -5"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"seed": -1, "noise_std": 0.1}, "seed must be >= 0, got -1"),
    ])
    def test_bad_spec_named(self, kw, message):
        args = {"length": 300, "channels": 1,
                "components": [(8, 1.0, None)], **kw}
        with pytest.raises(ValueError, match=message):
            dt.synth_multiperiod(**args)
