import pytest

from conftest import DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(reach, path):
    assert reach.run_demo(path)
