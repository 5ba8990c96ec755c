"""Second key site: drops `within`, so its cache mixes predicates."""

from analysis_fixtures.rpl009_cachekey.bad_two_sites.executor import execute_request
from analysis_fixtures.rpl009_cachekey.bad_two_sites.keys import request_cache_key
from analysis_fixtures.rpl009_cachekey.bad_two_sites.requests import JoinRequest
from analysis_fixtures.rpl009_cachekey.bad_two_sites.workspace import SpatialWorkspace

ROUTER_CACHE = {}


def submit_async(request: JoinRequest, workspace: SpatialWorkspace):
    key = request_cache_key(
        request.a,
        request.b,
        request.algorithm,
        request.space,
        request.parameters,
    )
    cached = ROUTER_CACHE.get(key)
    if cached is not None:
        # A within=0.5 request after a plain join of the same datasets
        # lands here and gets the plain join's pairs.
        return cached
    result = execute_request(request, workspace)
    ROUTER_CACHE[key] = result
    return result
