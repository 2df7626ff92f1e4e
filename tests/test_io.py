import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planlab.core import Action, Instance
from planlab.io import (ParseError, parse_instance, parse_plan,
                        serialize_instance, serialize_plan)

TOY1_TEXT = """\
SASP 1
vars 2
domain 2
init 0 0
goal 0=1 1=1
action a1 pre eff 0=1
action a2 pre 0=1 eff 1=1
"""


def test_parse_toy1(toy1):
    inst = parse_instance(TOY1_TEXT)
    assert inst == toy1
    assert inst.var_count == 2 and len(inst.actions) == 2


def test_serialize_canonical(toy1):
    assert serialize_instance(toy1) == TOY1_TEXT


def test_round_trip(toy1):
    assert parse_instance(serialize_instance(toy1)) == toy1


def test_round_trip_canonical_text(toy1):
    assert serialize_instance(parse_instance(TOY1_TEXT)) == TOY1_TEXT


def test_empty_goal_line():
    inst = Instance(1, 2, (Action("a", {}, {0: 1}),), (0,), {})
    text = serialize_instance(inst)
    assert "\ngoal\n" in text
    assert parse_instance(text) == inst


def test_comments_and_blank_lines():
    text = "# a comment\n\n" + TOY1_TEXT.replace(
        "goal", "# interleaved\ngoal", 1)
    assert parse_instance(text) == parse_instance(TOY1_TEXT)


@pytest.mark.parametrize("mangle,needle", [
    (lambda t: t.replace("SASP 1", "SASP 2"), "header"),
    (lambda t: t.replace("init 0 0", "init 0 2"), "out of range"),
    (lambda t: t.replace("init 0 0", "init 0"), "expected 2"),
    (lambda t: t.replace("goal 0=1 1=1", "goal 0=1 0=0"), "twice"),
    (lambda t: t.replace("action a2", "action a1"), "duplicate"),
    (lambda t: t.replace("1=1\n", "5=1\n"), "out of range"),
    (lambda t: t.replace(" pre eff 0=1", " pre 0=1"), "missing 'eff'"),
    (lambda t: t.replace("action a1", "action a|1"), "illegal"),
    (lambda t: t.replace("action a1 pre eff 0=1", "action"),
     "action line is missing a name"),
])
def test_parse_errors(mangle, needle):
    with pytest.raises(ParseError) as err:
        parse_instance(mangle(TOY1_TEXT))
    assert needle in str(err.value)


@pytest.mark.parametrize("old,new", [
    ("vars 2", "vars \u00b2"),        # superscript two: str.isdigit() holds
    ("domain 2", "domain \u00b3"),    # superscript three
    ("init 0 0", "init 0 \u00b2"),
    ("goal 0=1", "goal 0=\u0661"),    # Arabic-Indic one: int() accepts it
    ("vars 2", "vars " + "9" * 5000),  # longer than int() converts
    ("init 0 0", "init 0 " + "0" * 5000),
    ("goal 0=1", "goal 0=" + "1" * 5000),
], ids=["vars-sup2", "domain-sup3", "init-sup2", "goal-arabic-indic",
        "vars-long", "init-long", "goal-long"])
def test_numbers_are_ascii_digits(old, new):
    with pytest.raises(ParseError):
        parse_instance(TOY1_TEXT.replace(old, new, 1))


# TOY1 split around its integers: odd pieces are the numeric tokens
_TOY1_PIECES = re.split(r"([0-9]+)", TOY1_TEXT)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, len(_TOY1_PIECES) // 2 - 1),
       st.one_of(st.text(max_size=12),
                 st.text("0123456789\u00b2\u00b3\u0663\u00bd=- ",
                         max_size=12)))
def test_fuzz_numeric_tokens_never_crash(index, text):
    pieces = list(_TOY1_PIECES)
    pieces[2 * index + 1] = text
    try:
        parse_instance("".join(pieces))
    except ParseError:
        pass


def test_parse_error_location():
    with pytest.raises(ParseError) as err:
        parse_instance(TOY1_TEXT.replace("init 0 0", "init 0 2"))
    assert err.value.line == 4
    assert err.value.token == "2"
    with pytest.raises(ParseError) as err:
        parse_instance(TOY1_TEXT.replace("domain 2", "domain 0"))
    assert err.value.line == 3
    assert err.value.token == "0"


def test_plan_files(toy1):
    assert parse_plan("a1\na2\n", toy1) == (0, 1)
    assert parse_plan("", toy1) == ()
    assert parse_plan("# note\na2\n", toy1) == (1,)
    with pytest.raises(ParseError):
        parse_plan("a9\n", toy1)
    assert serialize_plan((0, 1), toy1) == "a1\na2\n"


def test_serialize_injective():
    a = Instance(1, 2, (Action("a", {}, {0: 1}),), (0,), {0: 1})
    b = Instance(1, 2, (Action("a", {}, {0: 0}),), (0,), {0: 1})
    assert serialize_instance(a) != serialize_instance(b)


def test_var_names_are_display_only(toy1):
    # the format has no variable names; equality ignores them by design
    renamed = Instance(2, 2, toy1.actions, toy1.init, dict(toy1.goal),
                       ("left", "right"))
    assert renamed == toy1
    assert parse_instance(serialize_instance(renamed)) == renamed


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=400))
def test_fuzz_bytes_never_crash(data):
    try:
        parse_instance(data)
    except ParseError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=300))
def test_fuzz_text_never_crash(text):
    try:
        parse_instance(text)
    except ParseError:
        pass


def test_fuzz_mutated_canonical():
    rng = random.Random(2024)
    base = TOY1_TEXT
    for _ in range(500):
        chars = list(base)
        for _ in range(rng.randint(1, 6)):
            pos = rng.randrange(len(chars))
            chars[pos] = chr(rng.randrange(32, 127))
        try:
            parse_instance("".join(chars))
        except ParseError:
            pass
