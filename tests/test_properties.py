"""Property tests: the parsers of user text return a value or raise ValueError.

The command line turns a ValueError into a usage error (exit 64) naming the
problem; any other exception would end in a traceback, so it is a bug.
"""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qecdesk.channels import parse_channel_spec
from qecdesk.cli import _parse_input

KINDS = ("depolarizing", "bitflip", "gaussian7", "collective", "independent")
KEYS = ("p", "K", "n", "vx", "vy", "vz", "q", "")
# small counts and specs of at most 5 tokens: both caps admit products such as
# "independent n=3 independent n=3 bitflip p=0.1" (6 tokens, 512 operators of
# 512 x 512, 2 GiB), which a property run must not try to build; 65 is past
# every cap, so a count check that regressed still fails without allocating
VALUES = ("0", "0.1", "0.5", "1", "2", "3", "-1", "1.5", "1e3", "nan", "inf", "abc", "",
          "1e400", "65", "0x10", "=")

token = st.one_of(
    st.sampled_from(KINDS),
    st.builds("{}={}".format, st.sampled_from(KEYS), st.sampled_from(VALUES)),
    st.text(alphabet=st.characters(exclude_characters="0123456789"), max_size=6),
)


def returns_or_refuses(parse, *args):
    try:
        parse(*args)
    except ValueError:
        pass


@settings(deadline=None, max_examples=300)
@given(st.lists(token, max_size=5).map(" ".join))
def test_channel_spec_tokens_return_or_raise_value_error(text):
    returns_or_refuses(parse_channel_spec, text)


@settings(deadline=None)
@given(st.text())
@example("independent n=1 " * 3000 + "bitflip p=0.1")  # nested past the recursion limit
def test_channel_spec_free_text_returns_or_raises_value_error(text):
    returns_or_refuses(parse_channel_spec, text)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=2),
    max_leaves=10,
)


@pytest.mark.parametrize("dim", [2, 7])
@settings(deadline=None)
@given(text=st.one_of(st.text(), json_values.map(json.dumps)))
@example(text="{}")
@example(text="[" + "9" * 400 + ", 1]")  # past float range
@example(text="[1e308, 1e308]")  # the norm overflows
@example(text="[" * 100000)  # nested past the recursion limit
def test_input_token_returns_or_raises_value_error(dim, text):
    returns_or_refuses(_parse_input, text, dim)
