"""Compute ``reference.json``: the pinned outputs of every analyze document.

    python3 perfbench/make_reference.py

For each analyze workload and each of the ``VARIANTS`` seeded variants, run
``hermlab analyze`` in-process on the generated document and store the values
the benchmark checks (``run.observed_values``), keyed by the SHA-256 of the
document's canonical JSON.  A document shared by all variants is stored once.
Regenerate only when the generators change, on a commit whose outputs are
trusted; the file pins every later commit to those outputs.
"""

import json
import tempfile
from pathlib import Path

import generators as g
import run


def main():
    from hermlab import cli

    reference = {}
    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        doc_path, out_path = Path(tmp) / "doc.json", Path(tmp) / "out.json"
        for workload in ("cli-small", "report-ladder"):
            for variant in range(g.VARIANTS):
                for rung, doc in g.analyze_docs(workload, variant).items():
                    key = g.doc_digest(doc)
                    if key in reference:
                        continue
                    doc_path.write_text(json.dumps(doc), encoding="utf-8")
                    code = cli.main(["analyze", str(doc_path), "--format", "json",
                                     "--output", str(out_path)])
                    if code != 0:
                        raise SystemExit(f"{workload}/{rung} variant {variant}: exit {code}")
                    report = run.parse_report(out_path.read_text(encoding="utf-8"))
                    reference[key] = {"workload": workload, "rung": rung,
                                      "variant": variant, **run.observed_values(report)}
                print(f"{workload} variant {variant}: {len(reference)} documents", flush=True)
    with open(run.HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
