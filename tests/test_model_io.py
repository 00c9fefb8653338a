import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcpca import McpcaModel
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
        ordering_rule="loading-column-sum-desc",
        sign_rule="max-abs-entry-positive",
        seed=draw(st.integers(-(2**70), 2**70)),
        converged=tuple(draw(st.lists(st.booleans(), min_size=r, max_size=r))),
    )
    if draw(st.booleans()):
        d = draw(st.integers(1, 4))
        pre = Preprocessing(
            pca_components=p,
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
        assert loaded_pre.pca_components == pre.pca_components
        if pre.projection is None:
            assert loaded_pre.projection is None and loaded_pre.pca_mean is None
        else:
            assert _bits(loaded_pre.projection) == _bits(pre.projection)
            assert _bits(loaded_pre.pca_mean) == _bits(pre.pca_mean)


def test_preprocessing_copies_its_arrays():
    projection, mean = np.eye(2, 3), np.zeros(3)
    pre = Preprocessing(pca_components=2, projection=projection, pca_mean=mean)
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
        ordering_rule="loading-column-sum-desc",
        sign_rule="max-abs-entry-positive",
        seed=0,
        converged=(True, True),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="nonincreasing B column sums"):
            McpcaModel(B=B, **fields)
        McpcaModel(B=B[:, ::-1], **fields)
