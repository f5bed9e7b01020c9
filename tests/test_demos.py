import pytest

from conftest import DEMOS, GOLDEN


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(reach, path):
    """The demo prints exactly `tests/golden/demos/<stem>.txt`."""
    assert reach.run_demo(path).encode() == (GOLDEN / "demos" / f"{path.stem}.txt").read_bytes()
