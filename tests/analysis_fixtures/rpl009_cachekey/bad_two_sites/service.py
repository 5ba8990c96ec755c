"""First key site: includes the `within` predicate."""

from analysis_fixtures.rpl009_cachekey.bad_two_sites.executor import execute_request
from analysis_fixtures.rpl009_cachekey.bad_two_sites.keys import request_cache_key
from analysis_fixtures.rpl009_cachekey.bad_two_sites.requests import JoinRequest
from analysis_fixtures.rpl009_cachekey.bad_two_sites.workspace import SpatialWorkspace

CACHE = {}


def submit(request: JoinRequest, workspace: SpatialWorkspace):
    key = request_cache_key(
        request.a,
        request.b,
        request.algorithm,
        request.space,
        request.parameters,
        request.within,
    )
    cached = CACHE.get(key)
    if cached is not None:
        return cached
    result = execute_request(request, workspace)
    CACHE[key] = result
    return result
