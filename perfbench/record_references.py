"""Recompute the train workload's reference losses into references.json.

    python3 perfbench/record_references.py

The table holds the final total loss of one ``trainer.train`` call of the
train workload for every input seed.  Regenerate it only when a change is
meant to alter training results, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from protomatch import trainer  # noqa: E402
from workloads import INPUT_SEEDS, REFERENCES, train_config, train_corpus  # noqa: E402


def main() -> int:
    table = {}
    for seed in range(INPUT_SEEDS):
        _, history = trainer.train(train_corpus(seed), train_config(seed))
        table[str(seed)] = history[-1].total
    REFERENCES.write_text(json.dumps({"train_final_loss": table}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
