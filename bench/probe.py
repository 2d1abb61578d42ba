"""Set-up probe: a fresh process imports ``cyclemaps`` from ``src/`` and parses
the given input files, as every CLI call must before it computes anything.

    python3 bench/probe.py FILE...

A file holds a map object, a list of map objects, or a matrix object
(``{"rows", "cols", "entries"}``).
"""
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cyclemaps import matrix_from_json  # noqa: E402
from cyclemaps.cli import parse_map_json  # noqa: E402

for path in sys.argv[1:]:
    obj = json.loads(Path(path).read_text())
    if isinstance(obj, dict) and "entries" in obj:
        matrix_from_json(obj)
    else:
        for spec in obj if isinstance(obj, list) else [obj]:
            parse_map_json(spec)
