"""Guard: no hand-rolled training loops outside ``repro.engine``.

Every training loop must go through :class:`repro.engine.TrainLoop`.  A
``for epoch in`` or a ``.backward(`` call anywhere else in ``src/repro``
means someone re-grew a bespoke loop — which silently loses telemetry,
early stopping, and checkpoint/resume support.  And only the engine builds
a ``TrainLoop``: methods run through :meth:`repro.engine.Method.train` /
``fit``, so a ``TrainLoop(`` elsewhere is a second run path growing back.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
EPOCH_LOOP = re.compile(r"for\s+epoch\s+in")
BACKWARD_CALL = re.compile(r"\.backward\(")
LOOP_CONSTRUCTION = re.compile(r"\bTrainLoop\(")


def _offenders(pattern):
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if SRC / "engine" in path.parents:
            continue
        for number, line in enumerate(path.read_text().splitlines(), start=1):
            if pattern.search(line):
                offenders.append(f"{path.relative_to(SRC.parent)}:{number}: {line.strip()}")
    return offenders


def test_no_epoch_loops_outside_engine():
    offenders = _offenders(EPOCH_LOOP)
    assert not offenders, (
        "hand-rolled epoch loops found (use repro.engine.TrainLoop):\n"
        + "\n".join(offenders)
    )


def test_no_backward_calls_outside_engine():
    offenders = _offenders(BACKWARD_CALL)
    assert not offenders, (
        "backward() called outside the engine (use repro.engine.TrainLoop):\n"
        + "\n".join(offenders)
    )


def test_train_loops_are_built_only_in_the_engine():
    offenders = _offenders(LOOP_CONSTRUCTION)
    assert not offenders, (
        "TrainLoop built outside the engine (use Method.train / Method.fit):\n"
        + "\n".join(offenders)
    )
