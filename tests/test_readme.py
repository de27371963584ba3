"""The README's examples stay in step with the code: every ``bipembed``
command in its code blocks parses, its Library block runs, and every name
its Library section lists resolves."""

import importlib
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


def test_library_names_resolve():
    """Each name of the Library section's "Lower-level entry points" list
    exists: a bare name as ``bipembed.<name>``, a qualified one as
    ``bipembed.<module>.<name>``; a call's arguments are ignored."""
    (entries,) = re.findall(r"^Lower-level entry points:(.*?)\.$", README.read_text(),
                            re.S | re.M)
    names = [re.match(r"[\w.]+", span).group() for span in re.findall(r"`([^`]+)`", entries)]
    assert len(names) >= 20
    for name in names:
        module, _, attr = name.rpartition(".")
        home = importlib.import_module(f"bipembed.{module}" if module else "bipembed")
        assert getattr(home, attr, None) is not None, name
