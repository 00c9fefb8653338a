import json
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcpca import McpcaModel
from mcpca.exceptions import DataFormatError
from mcpca.model_io import Preprocessing, load_model, save_model, serialize_model

HUGE = float(np.finfo(float).max)
SMALLEST_NORMAL = float(np.finfo(float).tiny)

# Entries of unit columns before normalization: signed zeros, subnormals
# and ordinary values.
_component_entries = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e-310, -SMALLEST_NORMAL]),
    st.floats(-1.0, 1.0, allow_subnormal=True),
)
# Loadings from zero through the subnormals up to the largest double.
_loadings = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 1e-310, SMALLEST_NORMAL, 1e308, HUGE]),
    st.floats(0.0, HUGE, allow_subnormal=True),
)
_finite = st.one_of(
    st.sampled_from([-0.0, 5e-324, -1e-310, HUGE, -HUGE]),
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
)


def _matrix(draw, elements, rows, cols):
    values = draw(st.lists(elements, min_size=rows * cols, max_size=rows * cols))
    return np.array(values, dtype=float).reshape(rows, cols)


@st.composite
def _models(draw):
    p = draw(st.integers(1, 5))
    k = draw(st.integers(1, 4))
    r = draw(st.integers(1, p))
    A = _matrix(draw, _component_entries, p, r)
    # A pivot of 2 is each column's largest entry in magnitude, so the
    # sign rule holds without flipping (which would turn -0.0 into 0.0);
    # dividing by the norm keeps every sign.
    pivots = draw(st.lists(st.integers(0, p - 1), min_size=r, max_size=r))
    A[pivots, np.arange(r)] = 2.0
    A /= np.linalg.norm(A, axis=0)
    B = _matrix(draw, _loadings, k, r)
    # Sorted on the sums of B over its largest entry, as the model checks
    # its column order: the sums of B itself may overflow to inf.
    top = B.max()
    B = B[:, np.argsort(-(B / top if top > 0 else B).sum(axis=0), kind="stable")]
    model = McpcaModel(
        A=A,
        B=B,
        context_ids=tuple(draw(st.lists(st.text(), min_size=k, max_size=k))),
        seed=draw(st.integers(-(2**70), 2**70)),
        converged=tuple(draw(st.lists(st.booleans(), min_size=r, max_size=r))),
    )
    if draw(st.booleans()):
        d = draw(st.integers(1, 4))
        pre = Preprocessing(
            projection=_matrix(draw, _finite, p, d),
            pca_mean=_matrix(draw, _finite, 1, d)[0],
        )
    else:
        pre = Preprocessing()
    return model, pre


def _bits(x):
    return np.asarray(x).tobytes()


class TestModelFileRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(_models())
    def test_serialize_load_serialize_is_byte_identical(self, drawn):
        model, pre = drawn
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.json")
            save_model(path, model, pre)
            with open(path, "rb") as fh:
                written = fh.read()
            loaded, loaded_pre = load_model(path)
        assert written == serialize_model(model, pre).encode()
        assert serialize_model(loaded, loaded_pre).encode() == written
        assert _bits(loaded.A) == _bits(model.A)
        assert _bits(loaded.B) == _bits(model.B)
        assert loaded.context_ids == model.context_ids
        assert (loaded.seed, loaded.converged) == (model.seed, model.converged)
        if pre.projection is None:
            assert loaded_pre.projection is None and loaded_pre.pca_mean is None
        else:
            assert _bits(loaded_pre.projection) == _bits(pre.projection)
            assert _bits(loaded_pre.pca_mean) == _bits(pre.pca_mean)


def test_preprocessing_copies_its_arrays():
    projection, mean = np.eye(2, 3), np.zeros(3)
    pre = Preprocessing(projection=projection, pca_mean=mean)
    assert projection.flags.writeable and mean.flags.writeable
    projection[0, 0] = 5.0
    mean[0] = 5.0
    assert pre.projection[0, 0] == 1.0 and pre.pca_mean[0] == 0.0
    assert not (pre.projection.flags.writeable or pre.pca_mean.flags.writeable)


def test_column_order_check_survives_overflowing_sums():
    # The column sums of B are 1e308 and inf: the second column is the
    # heavier one, so the order is wrong, and the check must see that
    # without an overflow warning.
    B = np.array([[1.0, HUGE], [1e308, HUGE]])
    fields = dict(
        A=np.eye(2),
        context_ids=("a", "b"),
        seed=0,
        converged=(True, True),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="nonincreasing B column sums"):
            McpcaModel(B=B, **fields)
        McpcaModel(B=B[:, ::-1], **fields)


class TestFieldTypes:
    """A field of the wrong JSON type is an error, not a value coerced to
    the right one: such a file would not be written back byte-identically."""

    @pytest.fixture
    def raw(self):
        model = McpcaModel(
            A=np.eye(3, 2),
            B=np.array([[2.0, 1.0], [1.0, 1.0]]),
            context_ids=("a", "b"),
            seed=7,
            converged=(True, False),
        )
        pre = Preprocessing(projection=np.eye(3, 4), pca_mean=np.zeros(4))
        return json.loads(serialize_model(model, pre))

    def _load(self, raw):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(raw, fh)
            return load_model(path)

    def test_well_typed_file_loads(self, raw):
        model, pre = self._load(raw)
        assert (model.seed, model.context_ids, model.converged) == (7, ("a", "b"), (True, False))
        assert json.loads(serialize_model(model, pre)) == raw

    @pytest.mark.parametrize(
        "block, field, value",
        [
            (None, "seed", 7.0),
            (None, "context_ids", ["a", 2]),
            (None, "converged", [True, 1]),
            (None, "p", 3.0),
            (None, "r", True),
            (None, "format_version", True),
            (None, "format_version", 1.0),
            (None, "A", [[1.0, 0.0], [0.0, "1.0"], [0.0, 0.0]]),
            (None, "A", [[1.0, 0.0], [0.0, True], [0.0, 0.0]]),
            (None, "B", [[10**400, 1.0], [1.0, 1.0]]),
            ("preprocessing", "pca_components", 3.0),
            ("preprocessing", "pca_whitened", 0),
            ("preprocessing", "centering", None),
            ("preprocessing", "pca_mean", ["0.0", 0.0, 0.0, 0.0]),
            ("preprocessing", "projection", [[1.0, 0.0, 0.0, 0.0]] * 2 + [[0.0, 0.0, 1.0, False]]),
        ],
    )
    def test_wrong_type_is_rejected(self, raw, block, field, value):
        (raw[block] if block else raw)[field] = value
        with pytest.raises(DataFormatError):
            self._load(raw)

    def test_integer_matrix_entries_load_as_floats(self, raw):
        raw["A"] = [[1, 0], [0, 1], [0, 0]]
        model, _ = self._load(raw)
        assert model.A.dtype == float
        np.testing.assert_array_equal(model.A, np.eye(3, 2))

    def test_projection_must_reduce_to_p_variables(self, raw):
        # A projection onto 2 components for a model of 3 variables used to
        # load, and every score then failed on the reduced data's width.
        pre = raw["preprocessing"]
        pre["projection"], pre["pca_components"] = pre["projection"][:2], 2
        with pytest.raises(DataFormatError, match="projection has 2 rows, p is 3"):
            self._load(raw)

    def test_deeply_nested_file_is_rejected(self, tmp_path):
        # The JSON parser raises RecursionError, which used to escape.
        path = tmp_path / "model.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        with pytest.raises(DataFormatError, match="nested too deeply"):
            load_model(path)
