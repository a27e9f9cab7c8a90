"""Run one ``masscomb`` command with spans around its reader, writer,
generator and combine calls, then write the spans as JSON.

Usage: ``python3 tracedcli.py SPANS.json <masscomb arguments...>``.  Exits
with the command's own exit code.  ``masscomb`` must be importable
(``PYTHONPATH`` pointing at the sources).
"""

import os
import sys

import masscomb.cli
import masscomb.io

from tracing import Tracer, fusion_attrs, resident_bytes, rule_of


def main(argv: list[str]) -> int:
    spans_path, args = argv[0], argv[1:]
    tracer = Tracer()
    for fn in ("read_csv", "read_json"):
        tracer.wrap(masscomb.io, fn, f"io.{fn}",
                    before=lambda a, kw: {"bytes": os.path.getsize(a[0])}, after=resident_bytes)
    for fn in ("write_csv", "write_json"):
        tracer.wrap(masscomb.io, fn, f"io.{fn}")
    tracer.wrap(masscomb.cli, "generate", "genrand.generate", after=resident_bytes)
    tracer.wrap(masscomb.cli, "combine", "rules.combine", before=rule_of, after=fusion_attrs)
    code = masscomb.cli.main(args)
    tracer.unwrap()
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
