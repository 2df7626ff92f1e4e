"""Line-oriented instance and plan file format.

Canonical instance layout (one directive per line, single spaces, comments
start with '#'):

    SASP 1
    vars <n>
    domain <d>
    init <x_0> ... <x_{n-1}>
    goal [<var>=<val> ...]
    action <name> pre [<var>=<val> ...] eff [<var>=<val> ...]

Variables are referenced by 0-based index.  Parsing arbitrary bytes never
raises anything but ParseError, and every ParseError names its line, column
and offending token (column 1 and no token when no one token is at fault).
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, List, Tuple, Union

from .core import NAME_RE, Action, Instance, Plan, PlanLabError, StructuralError

_TOKEN_RE = re.compile(r"\S+")
_INT_RE = re.compile(r"[0-9]+\Z")  # ASCII only: str.isdigit() accepts "²"
_ASSIGN_RE = re.compile(r"([0-9]+)=([0-9]+)\Z")


class ParseError(PlanLabError):
    def __init__(self, message: str, line: int, column: int = 1, token: str = ""):
        self.message = message
        self.line = line
        self.column = column
        self.token = token
        super().__init__(f"line {line}, column {column}: {message}")


def _lines(text: str) -> Iterator[Tuple[int, str, List[str]]]:
    """Yield (line number, line, tokens) for non-comment lines."""
    for lineno, raw in enumerate(text.split("\n"), start=1):
        tokens = raw.split()
        if tokens and not tokens[0].startswith("#"):
            yield lineno, raw, tokens


def _error(message: str, lineno: int, raw: str, index: int) -> ParseError:
    """ParseError at token `index` of line `raw`.  Its column is worked out
    only here: re's \\S+ and str.split() agree on what whitespace is."""
    token = list(_TOKEN_RE.finditer(raw))[index]
    return ParseError(message, lineno, token.start() + 1, token.group())


def _number(text: str, lineno: int, raw: str, index: int) -> int:
    """int() of an ASCII digit string; Python refuses very long ones."""
    try:
        return int(text)
    except ValueError:
        raise _error(f"number too long ({len(text)} digits)", lineno, raw,
                     index) from None


def _decode(data: Union[str, bytes]) -> str:
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid UTF-8: {exc.reason}", line=1) from None


def _parse_assignments(tokens, first, lineno, raw, n, d,
                       what) -> Dict[int, int]:
    """<var>=<val> tokens, the first of them token `first` of line `raw`."""
    out: Dict[int, int] = {}
    for i, tok in enumerate(tokens, first):
        m = _ASSIGN_RE.match(tok)
        if not m:
            raise _error(f"expected <var>=<val>, got {tok!r}", lineno, raw, i)
        v, x = (_number(m.group(1), lineno, raw, i),
                _number(m.group(2), lineno, raw, i))
        if v >= n:
            raise _error(f"{what}: variable index {v} out of range "
                         f"(vars {n})", lineno, raw, i)
        if x >= d:
            raise _error(f"{what}: value out of range (domain {d})",
                         lineno, raw, i)
        if v in out:
            raise _error(f"{what}: variable {v} assigned twice", lineno, raw, i)
        out[v] = x
    return out


def parse_instance(data: Union[str, bytes]) -> Instance:
    text = _decode(data)
    lines = _lines(text)

    def next_line(expect: str):
        for line in lines:
            return line
        raise ParseError(f"unexpected end of file, expected {expect}",
                         line=text.count("\n") + 1)

    lineno, raw, tokens = next_line("header 'SASP 1'")
    if tokens != ["SASP", "1"]:
        raise _error("missing header 'SASP 1'", lineno, raw, 0)

    def keyword_int(expect: str, least: int = 0) -> int:
        lineno, raw, tokens = next_line(f"'{expect} <int>'")
        if (len(tokens) != 2 or tokens[0] != expect
                or not _INT_RE.match(tokens[1])):
            raise _error(f"expected '{expect} <int>'", lineno, raw, 0)
        value = _number(tokens[1], lineno, raw, 1)
        if value < least:
            raise _error(f"{expect} must be at least {least}", lineno, raw, 1)
        return value

    n = keyword_int("vars")
    d = keyword_int("domain", least=1)

    lineno, raw, tokens = next_line("'init ...'")
    if tokens[0] != "init":
        raise _error("expected 'init' line", lineno, raw, 0)
    if len(tokens) != n + 1:
        raise ParseError(f"init has {len(tokens) - 1} values, expected {n}",
                         lineno)
    init = []
    for i, tok in enumerate(tokens[1:], 1):
        if not _INT_RE.match(tok):
            raise _error(f"init: expected integer, got {tok!r}", lineno, raw, i)
        x = _number(tok, lineno, raw, i)
        if x >= d:
            raise _error(f"init: value out of range (domain {d})",
                         lineno, raw, i)
        init.append(x)

    lineno, raw, tokens = next_line("'goal ...'")
    if tokens[0] != "goal":
        raise _error("expected 'goal' line", lineno, raw, 0)
    goal = _parse_assignments(tokens[1:], 1, lineno, raw, n, d, "goal")

    actions = []
    names = set()
    for lineno, raw, tokens in lines:
        if tokens[0] != "action":
            raise _error(f"expected 'action', got {tokens[0]!r}",
                         lineno, raw, 0)
        if len(tokens) < 2:
            raise ParseError("action line is missing a name", lineno)
        name = tokens[1]
        if not NAME_RE.match(name):
            raise _error(f"illegal action name {name!r}", lineno, raw, 1)
        if name in names:
            raise _error(f"duplicate action name {name!r}", lineno, raw, 1)
        names.add(name)
        if tokens[2:3] != ["pre"]:  # points at the name when nothing follows
            raise _error("expected 'pre' after action name", lineno, raw,
                         min(2, len(tokens) - 1))
        if "eff" not in tokens[3:]:  # the name itself may be "eff"
            raise _error("action line is missing 'eff'", lineno, raw, 2)
        eff_at = tokens.index("eff", 3)
        pre = _parse_assignments(tokens[3:eff_at], 3, lineno, raw, n, d,
                                 f"pre({name})")
        eff = _parse_assignments(tokens[eff_at + 1:], eff_at + 1, lineno,
                                 raw, n, d, f"eff({name})")
        actions.append(Action(name, pre, eff))

    try:
        return Instance(var_count=n, domain_size=d, actions=tuple(actions),
                        init=tuple(init), goal=goal)
    except StructuralError as exc:  # everything above should prevent this
        raise ParseError(str(exc), line=1) from None


def _format_assignments(s: Dict[int, int]) -> str:
    return "".join(f" {v}={s[v]}" for v in sorted(s))


def serialize_instance(instance: Instance) -> str:
    for a in instance.actions:
        if not NAME_RE.match(a.name):
            raise StructuralError(f"action name {a.name!r} is not serializable")
    out = [
        "SASP 1",
        f"vars {instance.var_count}",
        f"domain {instance.domain_size}",
        ("init " + " ".join(str(x) for x in instance.init)).rstrip(),
        "goal" + _format_assignments(instance.goal),
    ]
    for a in instance.actions:
        out.append(f"action {a.name} pre{_format_assignments(a.pre)}"
                   f" eff{_format_assignments(a.eff)}")
    return "\n".join(out) + "\n"


def parse_plan(data: Union[str, bytes], instance: Instance) -> Plan:
    text = _decode(data)
    ids = {a.name: i for i, a in enumerate(instance.actions)}
    steps = []
    for lineno, raw, tokens in _lines(text):
        if len(tokens) != 1:
            raise _error("expected one action name per line", lineno, raw, 1)
        name = tokens[0]
        if name not in ids:
            raise _error(f"unknown action name {name!r}", lineno, raw, 0)
        steps.append(ids[name])
    return tuple(steps)


def serialize_plan(plan: Plan, instance: Instance) -> str:
    return "".join(instance.actions[aid].name + "\n" for aid in plan)
