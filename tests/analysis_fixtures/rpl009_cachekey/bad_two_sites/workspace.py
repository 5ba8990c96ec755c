"""Execution sink: the join entry point requests end up at."""


class SpatialWorkspace:
    def join(self, a, b, algorithm, space, parameters, within):
        return [(a, b, algorithm, space, tuple(parameters), within)]
