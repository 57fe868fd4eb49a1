"""The README's quick tour runs, and reads what its comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_values():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    tour: dict = {}
    exec(blocks[0], tour)
    ms, report = tour["ms"], tour["report"]
    assert round(ms.c, 2) == 9.12
    assert round(ms.d) == 377
    assert round(report.risk_approx, 2) == 0.96
    assert round(report.risk_exact, 2) == 0.65
    assert 1e-5 <= tour["mc"].tv_to_analytic <= 1e-3
