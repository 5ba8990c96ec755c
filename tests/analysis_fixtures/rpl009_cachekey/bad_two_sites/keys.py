"""Cache-key derivation covering the distance predicate."""


def request_cache_key(fp_a, fp_b, algorithm, space, parameters, within):
    params_sig = tuple(sorted(parameters.items()))
    within_sig = None if not within else float(within)
    return (fp_a, fp_b, algorithm, space, params_sig, within_sig)
