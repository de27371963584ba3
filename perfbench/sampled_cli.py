"""Run one bipembed command in this process, sampling the reference while
it runs (see ``reference.py``):

    PYTHONPATH=src python3 perfbench/sampled_cli.py <samples.json> <bipembed arguments...>

The ``cli-1024`` workload runs its commands this way.  The command is
``bipembed.cli.main`` with the given arguments, as the ``bipembed`` script
runs it; this script then writes the reference samples and the seconds
spent taking them to ``<samples.json>`` and exits with the command's code.
"""

import json
import sys

from reference import Clock

from bipembed import cli


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    clock = Clock()
    try:
        with clock.sampling():
            code = cli.main(argv)
    finally:
        with open(out, "w") as f:
            json.dump({"refs": clock.refs, "in_tick": clock.in_tick}, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
