"""Shared numeric tolerances and guards.

All log-domain identities are checked against LOG_TOL; identities that
compare ratios of exponentiated quantities use the looser RATIO_TOL.
"""

# absolute tolerance for identities checked in the log domain
LOG_TOL = 1e-12

# relative tolerance for ratios of exponentiated quantities
RATIO_TOL = 1e-10
