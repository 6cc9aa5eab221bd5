import pytest

from chebotarev import verify
from chebotarev.groupspec import parse_group


@pytest.fixture(scope="session")
def group_of():
    """Parse-and-cache group construction for test modules."""
    cache = {}

    def build(spec: str):
        if spec not in cache:
            cache[spec] = parse_group(spec).group
        return cache[spec]

    return build


@pytest.fixture(scope="session")
def verify_results():
    """Every ``verify-paper`` item, run once per session: ``{key: result}``
    in ``verify.ALL_ITEMS`` order, one pass/fail line printed per item."""
    out = {}
    for fn in verify.ALL_ITEMS:
        res = fn()
        print(res.line())
        out[res.key] = res
    return out
