"""Executes requests for both key sites, `within` included."""

from analysis_fixtures.rpl009_cachekey.bad_two_sites.requests import JoinRequest
from analysis_fixtures.rpl009_cachekey.bad_two_sites.workspace import SpatialWorkspace


def execute_request(request: JoinRequest, workspace: SpatialWorkspace):
    return workspace.join(
        request.a,
        request.b,
        algorithm=request.algorithm,
        space=request.space,
        parameters=request.parameters,
        within=request.within,
    )
