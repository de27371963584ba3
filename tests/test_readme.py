"""The README's examples stay in step with the code: every ``bipembed``
command in its code blocks parses, and its Library block runs."""

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
