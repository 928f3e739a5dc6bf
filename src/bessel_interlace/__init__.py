"""Bessel-function evaluation, certified zero enumeration, and numerical
verification of the interlacing inequalities among those zeros."""

from . import errors, evaluate, interlace, wronskian, zeros
from .errors import *
from .evaluate import *
from .interlace import *
from .wronskian import *
from .zeros import *

__version__ = "0.1.0"

__all__ = [*errors.__all__, *evaluate.__all__, *zeros.__all__, *interlace.__all__, *wronskian.__all__, "__version__"]
