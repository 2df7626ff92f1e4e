import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planlab.core import Action, Instance, StructuralError
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


def _toy1(old, new):
    return TOY1_TEXT.replace(old, new, 1)


_LONG = "9" * 5000  # longer than int() converts

# (input, message, line, column, token) for every raise site of
# parse_instance; a column is 1-based and counts a tab as one character
INSTANCE_ERRORS = {
    "bad-utf8": (b"SASP 1\n\xff\n", "not valid UTF-8: invalid start byte",
                 1, 1, ""),
    "empty": ("", "unexpected end of file, expected header 'SASP 1'",
              1, 1, ""),
    "eof-vars": ("SASP 1\n", "unexpected end of file, expected 'vars <int>'",
                 2, 1, ""),
    "eof-goal": ("SASP 1\nvars 2\ndomain 2\ninit 0 0\n# no goal\n",
                 "unexpected end of file, expected 'goal ...'", 6, 1, ""),
    "header": (_toy1("SASP 1", "  SASP 2"), "missing header 'SASP 1'",
               1, 3, "SASP"),
    "vars-keyword": (_toy1("vars 2", "\tvar 2"), "expected 'vars <int>'",
                     2, 2, "var"),
    "vars-extra": (_toy1("vars 2", " vars 2 3"), "expected 'vars <int>'",
                   2, 2, "vars"),
    "vars-sup2": (_toy1("vars 2", "vars \u00b2"), "expected 'vars <int>'",
                  2, 1, "vars"),
    "vars-long": (_toy1("vars 2", "vars  " + _LONG),
                  "number too long (5000 digits)", 2, 7, _LONG),
    "domain-least": (_toy1("domain 2", "domain \t0"),
                     "domain must be at least 1", 3, 9, "0"),
    "init-keyword": (_toy1("init 0 0", "  inits 0 0"),
                     "expected 'init' line", 4, 3, "inits"),
    "init-count": (_toy1("init 0 0", "  init 0"),
                   "init has 1 values, expected 2", 4, 1, ""),
    "init-integer": (_toy1("init 0 0", "init 0  x"),
                     "init: expected integer, got 'x'", 4, 9, "x"),
    "init-long": (_toy1("init 0 0", "init 0 " + _LONG),
                  "number too long (5000 digits)", 4, 8, _LONG),
    "init-range": (_toy1("init 0 0", "init 0\t2"),
                   "init: value out of range (domain 2)", 4, 8, "2"),
    "goal-keyword": (_toy1("goal 0=1", " goals 0=1"),
                     "expected 'goal' line", 5, 2, "goals"),
    "goal-syntax": (_toy1("goal 0=1 1=1", "goal 0=1 1:1"),
                    "expected <var>=<val>, got '1:1'", 5, 10, "1:1"),
    "goal-long": (_toy1("goal 0=1 1=1", "goal 0=1 1=" + _LONG),
                  "number too long (5000 digits)", 5, 10, "1=" + _LONG),
    "goal-variable": (_toy1("goal 0=1 1=1", "goal 0=1 5=1"),
                      "goal: variable index 5 out of range (vars 2)",
                      5, 10, "5=1"),
    "goal-value": (_toy1("goal 0=1 1=1", "goal 0=1 1=2"),
                   "goal: value out of range (domain 2)", 5, 10, "1=2"),
    "goal-twice": (_toy1("goal 0=1 1=1", "goal 0=1 0=0"),
                   "goal: variable 0 assigned twice", 5, 10, "0=0"),
    "action-keyword": (_toy1("action a1", " act a1"),
                       "expected 'action', got 'act'", 6, 2, "act"),
    "action-name": (_toy1("action a1 pre eff 0=1", "  action"),
                    "action line is missing a name", 6, 1, ""),
    "action-illegal": (_toy1("action a1", "action a|1"),
                       "illegal action name 'a|1'", 6, 8, "a|1"),
    "action-duplicate": (_toy1("action a2", "action  a1"),
                         "duplicate action name 'a1'", 7, 9, "a1"),
    "pre-name-only": (_toy1("action a1 pre eff 0=1", "action  a1"),
                      "expected 'pre' after action name", 6, 9, "a1"),
    "pre-other": (_toy1("action a1 pre eff", "action a1 eff"),
                  "expected 'pre' after action name", 6, 11, "eff"),
    "eff-missing": (_toy1("action a1 pre eff 0=1", "action a1\tpre 0=1"),
                    "action line is missing 'eff'", 6, 11, "pre"),
    "pre-twice": (_toy1("pre 0=1 eff", "pre 0=1 0=1 eff"),
                  "pre(a2): variable 0 assigned twice", 7, 19, "0=1"),
    "eff-value": (_toy1("eff 1=1", "eff 1=1 1=5"),
                  "eff(a2): value out of range (domain 2)", 7, 27, "1=5"),
    "eff-syntax": (_toy1("pre eff 0=1", "pre eff eff"),
                   "expected <var>=<val>, got 'eff'", 6, 19, "eff"),
}


def _assert_error(err, message, line, column, token):
    assert (err.message, err.line, err.column, err.token) == (
        message, line, column, token)
    assert str(err) == f"line {line}, column {column}: {message}"


@pytest.mark.parametrize("data,message,line,column,token",
                         list(INSTANCE_ERRORS.values()),
                         ids=list(INSTANCE_ERRORS))
def test_instance_error_positions(data, message, line, column, token):
    with pytest.raises(ParseError) as err:
        parse_instance(data)
    _assert_error(err.value, message, line, column, token)


def test_structural_fallback_is_a_parse_error(monkeypatch):
    # the checks above leave Instance nothing to refuse; should it refuse
    # anyway, parsing still raises only ParseError, at line 1
    def refuse(**_):
        raise StructuralError("refused")
    monkeypatch.setattr("planlab.io.Instance", refuse)
    with pytest.raises(ParseError) as err:
        parse_instance(TOY1_TEXT)
    _assert_error(err.value, "refused", 1, 1, "")


@pytest.mark.parametrize("data,message,line,column,token", [
    ("a1\n  a2 a1\n", "expected one action name per line", 2, 6, "a1"),
    ("a1\n\n\ta9\n", "unknown action name 'a9'", 3, 2, "a9"),
    (b"a1\n\xff\n", "not valid UTF-8: invalid start byte", 1, 1, ""),
], ids=["two-names", "unknown", "bad-utf8"])
def test_plan_error_positions(toy1, data, message, line, column, token):
    with pytest.raises(ParseError) as err:
        parse_plan(data, toy1)
    _assert_error(err.value, message, line, column, token)


# characters that both str.split() and re's \s treat as whitespace; "\n"
# is left out because it ends a line
_WHITESPACE = ("\t\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000"
               "\u200a\u2028\u2029\u202f\u205f\u3000")
# TOY1 split around its separators: odd pieces are " " or "\n"
_TOY1_SEPARATED = re.split(r"( |\n)", TOY1_TEXT)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, len(_TOY1_SEPARATED) // 2 - 1),
                          st.booleans(),
                          st.text(_WHITESPACE, min_size=1, max_size=3)),
                max_size=8))
def test_unicode_whitespace_separates_tokens(insertions):
    pieces = list(_TOY1_SEPARATED)
    for index, before, space in insertions:
        sep = pieces[2 * index + 1]
        pieces[2 * index + 1] = space + sep if before else sep + space
    assert parse_instance("".join(pieces)) == parse_instance(TOY1_TEXT)


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


def test_keywords_as_action_names():
    # "eff" is found after "pre", so an action may be named after a keyword
    inst = parse_instance(_toy1("action a1", "action eff").replace(
        "action a2", "action pre", 1))
    assert [a.name for a in inst.actions] == ["eff", "pre"]
    assert inst.actions[0].eff == {0: 1} and inst.actions[1].pre == {0: 1}
