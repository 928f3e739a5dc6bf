"""Frozen expected values for the test suite.

ORACLE_* constants were computed with tests/oracle.py (mpmath, 40
digits: coarse sign scan plus bisection) and are quoted to 17
significant digits. CERTIFIED_* constants are double-precision
locations whose enclosing +/-1e-9 interval was certified to contain a
sign change by the same oracle; compare against them no tighter than
1e-8.
"""

import math

# s-th zeros, oracle-bisected. Keys: (kind, nu, s).
ORACLE_ZEROS = {
    ("j", 0.0, 1): 2.4048255576957728,
    ("j", 0.0, 2): 5.5200781102863106,
    ("j", 1.0, 1): 3.8317059702075123,
    ("j", 1.0, 2): 7.0155866698156188,
    ("j", 5.0, 1): 8.7714838159599540,
    ("y", 0.0, 1): 0.89357696627916752,
    ("y", 0.0, 2): 3.9576784193148579,
    ("y", 1.0, 1): 2.1971413260310170,
    ("y", 2.0, 1): 3.3842417671495935,
    ("y", 5.0, 1): 6.7471838248710219,
    ("jp", 1.0, 1): 1.8411837813406593,
    ("jp", 1.0, 2): 5.3314427735250326,
    ("jp", 0.6, 1): 1.3086809011367066,
    ("jp", 5.1, 1): 6.5246712123310965,
}

# Half-order Y zeros are (2s-1) pi/2 in closed form.
HALF_ORDER_Y = [(2 * s - 1) * math.pi / 2.0 for s in range(1, 8)]

# Sign-certified zeros at larger or awkward orders. Keys: (kind, nu, s).
CERTIFIED_ZEROS = {
    ("jp", 0.6, 2): 4.752605529567759,
    ("y", 0.5, 2): 4.712388980384690,  # also 3*pi/2 exactly
    ("jp", 300.1, 2): 317.65225709637787,
    ("y", 300.0, 2): 317.68220630263374,
    ("yp", 0.25, 1): 2.59880867822684,
    ("yp", 400.25, 1): 413.79816400276565,
    ("j", 400.0, 1): 413.8135410752843,
    ("jp", 600.0, 1): 606.8286457825625,
    ("y", 599.0, 1): 606.8837604972384,
}

# Values of the functions themselves (oracle, 17 digits).
J_1_AT_1 = 0.44005058574493352

# First positive root of W_{0,2} (oracle bisection on the Wronskian).
W_0_2_FIRST_ZERO = 1.4018949468675323

# y_{2,1} - j_{0,1}, the breaking margin at (nu=0, eps=2, s=1).
BREAK_GAP_NU0_EPS2 = 0.97941620945382070

# Smallest breaking ranks found and certified (y_{nu+eps,s} > j_{nu,s},
# with every earlier rank certified to the opposite ordering).
BREAKING_RANKS = {
    (10.0, 1.25): 7,
    (0.0, 1.01): 11,
}
