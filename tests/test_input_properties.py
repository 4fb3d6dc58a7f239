"""Property tests of the other text and byte inputs: any PGM file reads as a
[0, 1] heatmap of its header's shape or fails cleanly, and any --disturb spec
parses to a push or fails with a named cause."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitlab.cli import _parse_disturb
from gaitlab.errors import GaitlabError, InvalidInputError
from gaitlab.heatmap import read_pgm
from gaitlab.plant import Disturbance

derandomized = settings(derandomize=True, max_examples=200, deadline=None)

# header separators: at least one whitespace byte, then whitespace and comment lines
gap = st.builds(
    bytes.__add__,
    st.sampled_from([b" ", b"\t", b"\n", b"\r"]),
    st.lists(st.sampled_from([b" ", b"\n", b"\x0b", b"# note\n", b"#\n"]), max_size=3)
    .map(b"".join),
)


@st.composite
def pgm_file(draw):
    """(bytes, expected (height, width) or None) for a P5 header built from tokens."""
    magic = draw(st.sampled_from([b"P5", b"P5", b"P5", b"P2"]))
    dims = [draw(st.integers(-1, 8)) for _ in range(2)]
    maxval = draw(st.sampled_from([255, 255, 1, 0, 256]))
    fields = [str(v).encode() for v in (*dims, maxval)]
    shape = (dims[1], dims[0])
    if draw(st.integers(0, 3)) == 0:  # a noise token in place of one header field
        fields[draw(st.integers(0, 2))] = draw(st.binary(min_size=1, max_size=4))
        shape = None
    head = magic + b"".join(draw(gap) + f for f in fields) + draw(gap)
    size = max(max(dims[0], 0) * max(dims[1], 0) + draw(st.integers(-1, 2)), 0)
    top = draw(st.sampled_from([255, min(max(maxval, 0), 255)]))  # mostly pixels <= maxval
    payload = bytes(draw(st.lists(st.integers(0, top), min_size=size, max_size=size)))
    return head + payload, shape


@derandomized
@given(st.one_of(st.binary().map(lambda b: (b, None)), pgm_file()))
def test_any_pgm_reads_as_a_unit_heatmap_or_is_an_input_error(tmp_path_factory, case):
    data, shape = case
    path = tmp_path_factory.mktemp("pgm") / "any.pgm"
    path.write_bytes(data)
    try:
        h = read_pgm(path)
    except InvalidInputError:
        return
    assert h.ndim == 2 and h.dtype == float
    assert np.all((h >= 0.0) & (h <= 1.0))
    if shape is not None:
        assert h.shape == shape


number = st.one_of(
    st.floats().map(repr),
    st.integers().map(str),
    st.text(alphabet="0123456789.eE+-", min_size=1, max_size=6),
)
disturb_spec = st.builds(
    "{}@{}{}:{}".format,
    number,
    number,
    st.sampled_from(["s", ""]),
    st.sampled_from(["front", "back", "left", "right", "up"]),
)


@derandomized
@given(st.one_of(st.text(), disturb_spec))
def test_any_disturb_spec_parses_or_is_a_gaitlab_error(spec):
    try:
        push = _parse_disturb(spec)
    except GaitlabError:
        return
    assert isinstance(push, Disturbance)
