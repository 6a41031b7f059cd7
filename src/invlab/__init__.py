"""invlab: a numerical laboratory for invariant metrics on model complex domains.

Closed-form hyperbolic-type distances and their localization gap on the
half-disc, variational Finsler geodesics with quality certificates, a
moment-based numeric Bergman kernel oracle, and empirical sweeps for the
inequality shapes that govern local-versus-global distance comparison.
"""
