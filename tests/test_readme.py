"""The README's examples stay in step with the code: every ``bipembed``
command in its code blocks parses, its Library block runs, every name its
Library section lists resolves, and every call its prose shows names the
function's parameters."""

import importlib
import inspect
import re
import shlex
from pathlib import Path

from bipembed.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def code_blocks():
    """(info string, text) of each fenced code block, in order."""
    return re.findall(r"^```(\w*)\n(.*?)^```", README.read_text(), re.S | re.M)


def commands():
    """Each ``bipembed`` command line of the shell blocks, with lines
    continued by a backslash joined."""
    out = []
    for lang, text in code_blocks():
        if lang:
            continue
        for line in text.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["bipembed"]:
                out.append(words[1:])
    return out


def test_every_command_parses():
    found = commands()
    assert len(found) >= 10
    parser = build_parser()
    for argv in found:
        assert callable(parser.parse_args(argv).fn), argv


def test_library_block_runs():
    (block,) = [text for lang, text in code_blocks() if lang == "python"]
    exec(compile(block, str(README), "exec"), {})


def resolve(name):
    """``bipembed.<name>`` for a bare name, ``bipembed.<module>.<name>`` for
    a qualified one, or None."""
    module, _, attr = name.rpartition(".")
    home = importlib.import_module(f"bipembed.{module}" if module else "bipembed")
    return getattr(home, attr, None)


def test_library_calls_name_the_leading_parameters():
    """Outside fenced code, each backquoted call of the Library section
    that names a bipembed function, such as ``f(a, b=None)``, lists f's
    first parameters in order (``ceil(bound)`` names none)."""
    (section,) = re.findall(r"^## Library\n(.*?)^## ", README.read_text(), re.S | re.M)
    prose = re.sub(r"^```.*?^```", "", section, flags=re.S | re.M)
    calls = [(resolve(name), name, args)
             for name, args in re.findall(r"`([\w.]+)\(([^`]*)\)`", prose)]
    calls = [call for call in calls if call[0] is not None]
    assert len(calls) >= 5
    for fn, name, args in calls:
        shown = [a.split("=")[0].strip() for a in args.split(",") if a.strip()]
        params = list(inspect.signature(fn).parameters)
        assert shown == params[:len(shown)], (name, shown, params)


def test_library_names_resolve():
    """Each name of the Library section's "Lower-level entry points" list
    exists: a bare name as ``bipembed.<name>``, a qualified one as
    ``bipembed.<module>.<name>``; a call's arguments are ignored."""
    (entries,) = re.findall(r"^Lower-level entry points:(.*?)\.$", README.read_text(),
                            re.S | re.M)
    names = [re.match(r"[\w.]+", span).group() for span in re.findall(r"`([^`]+)`", entries)]
    assert len(names) >= 20
    for name in names:
        assert resolve(name) is not None, name
