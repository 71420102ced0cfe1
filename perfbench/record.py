#!/usr/bin/env python3
"""Record the expected outputs the benchmark gates on.

    PYTHONPATH=src python3 perfbench/record.py

Writes perfbench/expected/verify_cells.json (status of every verify_oracle
cell) and perfbench/expected/cli_digests.json (exit code and stdout sha256 of
every fixed cli_tables command) from the package in ./src.  Run it only at a
commit whose outputs are known good: the benchmark then fails any later
commit whose outputs differ.
"""
import json
import os
import sys

import workloads


def main() -> int:
    os.makedirs(workloads.EXPECTED_DIR, exist_ok=True)
    _, report = workloads.run_verify_oracle(seed=0, expected={})
    if report is None or not report.ok:
        print("verify report has failing cells; not recording", file=sys.stderr)
        return 1
    cells = {workloads.verify_cell_key(c): c.status for c in report.cells}
    with open(workloads.VERIFY_CELLS_FILE, "w") as fh:
        json.dump(cells, fh, indent=1, sort_keys=True)

    from verlinde_kit import cli

    digests = {}
    for argv in workloads.table_commands():
        code, out = workloads.call_cli(cli.main, argv, keep=False)
        digests[" ".join(argv)] = [code, out.hexdigest()]
    with open(workloads.CLI_DIGESTS_FILE, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
    print(f"recorded {len(cells)} verify cells and {len(digests)} command digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
