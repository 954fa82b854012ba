"""Check the output of one ``perfbench/run.py`` run: the run is correct, and
one detail of it holds.

    python .github/check_benchmark_run.py trace|golden LABEL OUTPUT

``trace`` requires every traced function to be found (``trace_missing`` is
``[]``); ``golden`` requires the artifacts to have been byte-compared with
``perfbench/golden/``. Prints one summary line; exits 0 when both hold.
"""

import json
import sys

REQUIREMENTS = {"trace": ("trace_missing", []), "golden": ("golden", "compared with golden/")}


def main(require: str, label: str, output: str) -> int:
    key, expected = REQUIREMENTS[require]
    with open(output, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    detail = json.loads(next(line for line in lines if line.startswith("detail "))[len("detail "):])
    result = json.loads(lines[-1])
    print(label, "correct:", result["correct"], "failed:", result["failed"], f"{key}:", detail[key])
    return 0 if result["correct"] is True and detail[key] == expected else 1


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
