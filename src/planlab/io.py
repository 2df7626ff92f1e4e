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
raises anything but ParseError.
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


def _lines(text: str) -> Iterator[Tuple[int, List[Tuple[int, str]]]]:
    """Yield (line number, [(column, token), ...]) for non-comment lines."""
    for lineno, raw in enumerate(text.split("\n"), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield lineno, [(m.start() + 1, m.group()) for m in _TOKEN_RE.finditer(raw)]


def _number(text: str, lineno: int, col: int, token: str) -> int:
    """int() of an ASCII digit string; Python refuses very long ones."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"number too long ({len(text)} digits)", lineno,
                         col, token) from None


def _decode(data: Union[str, bytes]) -> str:
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid UTF-8: {exc.reason}", line=1) from None


def _parse_assignments(tokens, lineno, n, d, what) -> Dict[int, int]:
    out: Dict[int, int] = {}
    for col, tok in tokens:
        m = _ASSIGN_RE.match(tok)
        if not m:
            raise ParseError(f"expected <var>=<val>, got {tok!r}",
                             lineno, col, tok)
        v, x = (_number(m.group(1), lineno, col, tok),
                _number(m.group(2), lineno, col, tok))
        if v >= n:
            raise ParseError(f"{what}: variable index {v} out of range "
                             f"(vars {n})", lineno, col, tok)
        if x >= d:
            raise ParseError(f"{what}: value out of range (domain {d})",
                             lineno, col, tok)
        if v in out:
            raise ParseError(f"{what}: variable {v} assigned twice",
                             lineno, col, tok)
        out[v] = x
    return out


def parse_instance(data: Union[str, bytes]) -> Instance:
    text = _decode(data)
    lines = _lines(text)

    def next_line(expect: str):
        for lineno, tokens in lines:
            return lineno, tokens
        raise ParseError(f"unexpected end of file, expected {expect}",
                         line=text.count("\n") + 1)

    lineno, tokens = next_line("header 'SASP 1'")
    if [t for _, t in tokens] != ["SASP", "1"]:
        raise ParseError("missing header 'SASP 1'", lineno,
                         tokens[0][0] if tokens else 1,
                         tokens[0][1] if tokens else "")

    def keyword_int(expect: str, least: int = 0) -> int:
        lineno, tokens = next_line(f"'{expect} <int>'")
        if (len(tokens) != 2 or tokens[0][1] != expect
                or not _INT_RE.match(tokens[1][1])):
            col, tok = tokens[0] if tokens else (1, "")
            raise ParseError(f"expected '{expect} <int>'", lineno, col, tok)
        value = _number(tokens[1][1], lineno, *tokens[1])
        if value < least:
            raise ParseError(f"{expect} must be at least {least}", lineno,
                             *tokens[1])
        return value

    n = keyword_int("vars")
    d = keyword_int("domain", least=1)

    lineno, tokens = next_line("'init ...'")
    if not tokens or tokens[0][1] != "init":
        raise ParseError("expected 'init' line", lineno, tokens[0][0], tokens[0][1])
    values = tokens[1:]
    if len(values) != n:
        raise ParseError(f"init has {len(values)} values, expected {n}", lineno)
    init = []
    for col, tok in values:
        if not _INT_RE.match(tok):
            raise ParseError(f"init: expected integer, got {tok!r}",
                             lineno, col, tok)
        x = _number(tok, lineno, col, tok)
        if x >= d:
            raise ParseError(f"init: value out of range (domain {d})",
                             lineno, col, tok)
        init.append(x)

    lineno, tokens = next_line("'goal ...'")
    if not tokens or tokens[0][1] != "goal":
        raise ParseError("expected 'goal' line", lineno, tokens[0][0], tokens[0][1])
    goal = _parse_assignments(tokens[1:], lineno, n, d, "goal")

    actions = []
    names = set()
    for lineno, tokens in lines:
        if tokens[0][1] != "action":
            raise ParseError(f"expected 'action', got {tokens[0][1]!r}",
                             lineno, tokens[0][0], tokens[0][1])
        if len(tokens) < 2:
            raise ParseError("action line is missing a name", lineno)
        name_col, name = tokens[1]
        if not NAME_RE.match(name):
            raise ParseError(f"illegal action name {name!r}", lineno,
                             name_col, name)
        if name in names:
            raise ParseError(f"duplicate action name {name!r}", lineno,
                             name_col, name)
        names.add(name)
        rest = tokens[2:]
        if not rest or rest[0][1] != "pre":
            col, tok = rest[0] if rest else (name_col, name)
            raise ParseError("expected 'pre' after action name", lineno, col, tok)
        try:
            eff_at = [t for _, t in rest].index("eff")
        except ValueError:
            raise ParseError("action line is missing 'eff'", lineno,
                             rest[0][0], "pre") from None
        pre = _parse_assignments(rest[1:eff_at], lineno, n, d, f"pre({name})")
        eff = _parse_assignments(rest[eff_at + 1:], lineno, n, d, f"eff({name})")
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
    for lineno, tokens in _lines(text):
        if len(tokens) != 1:
            raise ParseError("expected one action name per line", lineno,
                             tokens[1][0], tokens[1][1])
        col, name = tokens[0]
        if name not in ids:
            raise ParseError(f"unknown action name {name!r}", lineno, col, name)
        steps.append(ids[name])
    return tuple(steps)


def serialize_plan(plan: Plan, instance: Instance) -> str:
    return "".join(instance.actions[aid].name + "\n" for aid in plan)
