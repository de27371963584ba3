"""What a command loads, seen from a fresh interpreter.

``bipembed verify --embedding`` checks an embedding with ``graphs`` and
``fileio`` alone, none of the pipeline whose output it checks; ``gen-host``
loads no pipeline module, and ``gen-target`` only ``homomorphism`` for its
labellings; and the package resolves its public names when they are first
used."""

import json
import os
import subprocess
import sys

import pytest

from bipembed.fileio import embedding_to_json, write_graph, write_json
from bipembed.graphs import BipartiteGraph, Embedding

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

PIPELINE = {"regularity", "partitioner", "embedder", "homomorphism", "hamilton"}


def fresh(code: str, *args: str, cwd=None) -> str:
    """The standard output of ``code`` run by a new interpreter that
    imports bipembed from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def loaded_by(argv: list[str], cwd) -> set[str]:
    """The bipembed modules loaded once ``cli.main(argv)`` has run, without
    the package prefix (the package itself is "")."""
    out = fresh(
        "import json, sys\n"
        "from bipembed.cli import main\n"
        "code = main(json.loads(sys.argv[1]))\n"
        "assert code == 0, code\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'bipembed')))",
        json.dumps(argv), cwd=cwd,
    )
    names = json.loads(out.splitlines()[-1])
    return {name.partition(".")[2] for name in names}


def test_verify_embedding_loads_only_graphs_and_fileio(tmp_path):
    g = BipartiteGraph.build(3, 3, [(a, b) for a in range(3) for b in range(3)])
    h = BipartiteGraph.build(3, 3, [(0, 0), (1, 0), (2, 2)])
    write_graph(str(tmp_path / "g.bg"), g)
    write_graph(str(tmp_path / "h.bg"), h)
    identity = Embedding({v: v for v in h.vertices()})
    write_json(str(tmp_path / "emb.json"), embedding_to_json(identity))
    loaded = loaded_by(
        ["verify", "--host", "g.bg", "--target", "h.bg", "--embedding", "emb.json"], tmp_path
    )
    assert loaded == {"", "cli", "fileio", "graphs"}


@pytest.mark.parametrize("argv", [
    ["gen-host", "--n", "16", "--out", "g.bg"],
    ["gen-target", "--n", "16", "--out", "h.bg", "--labelling-out", "h.lab"],
])
def test_generators_load_no_certification(tmp_path, argv):
    loaded = loaded_by(argv, tmp_path)
    assert "generators" in loaded
    # only gen-target's labellings need homomorphism
    assert loaded & PIPELINE == ({"homomorphism"} if argv[0] == "gen-target" else set())


def test_every_public_name_resolves():
    out = fresh(
        "import json, sys\n"
        "import bipembed\n"
        "bare = sorted(m for m in sys.modules if m.startswith('bipembed.'))\n"
        "missing = [n for n in bipembed.__all__ if getattr(bipembed, n, None) is None]\n"
        "star = {}\n"
        "exec('from bipembed import *', star)\n"
        "names = set(bipembed.__all__)\n"
        "print(json.dumps([bare, missing, sorted(names - set(star)),\n"
        "                  sorted(names - set(dir(bipembed))), len(names)]))"
    )
    bare, missing, not_starred, not_listed, count = json.loads(out.splitlines()[-1])
    # importing the package loads none of its modules
    assert bare == []
    assert (missing, not_starred, not_listed) == ([], [], [])
    # the classes and functions of the seven modules that define them
    assert count == 51


def test_an_unknown_name_is_an_attribute_error():
    import bipembed

    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        bipembed.no_such_name
