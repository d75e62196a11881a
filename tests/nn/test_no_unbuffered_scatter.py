"""Guard: no unbuffered ufunc scatters on the graph-attention path.

``np.add.at``/``np.maximum.at`` run one element at a time; on GAT's
edge-sized arrays they cost more than the rest of the layer.  The segment
reductions and GAT sum through a memoized incidence matrix instead
(:func:`repro.graph.sparse.cached_incidence`), and a max goes through a
sorted ``reduceat``.  An ``.at(`` call in these files brings the slow
scatter back.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
GUARDED = [SRC / "nn" / "functional.py", *sorted((SRC / "gnn").glob("*.py"))]
UFUNC_SCATTER = re.compile(r"\.at\(")


def test_no_ufunc_scatter_in_segment_ops_or_gnn():
    offenders = [
        f"{path.relative_to(SRC.parent)}:{number}: {line.strip()}"
        for path in GUARDED
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if UFUNC_SCATTER.search(line)
    ]
    assert not offenders, (
        "unbuffered ufunc scatter found (sum through "
        "repro.graph.sparse.cached_incidence instead):\n" + "\n".join(offenders)
    )
