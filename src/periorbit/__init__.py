"""Existence certificates and periodic orbits for second-order periodic
equations with inverse-power nonlinearities

    x'' + p(t) x' + q(t) x = b(t)/x^rho1 + c(t)/x^rho2 + e(t)

where the weight b may change sign while c and e stay positive.  The
package certifies positive periodic solutions through positivity of the
periodic kernel plus scalar cone inequalities, and computes the orbits
numerically by Newton shooting on the return map.
"""

from .expressions import PeriodicCoeff, parse_expression
from .hypotheses import Certificate, ProblemSpec, certify, theorem_for
from .problemfile import ProblemFileError, load_problem, parse_problem_text
from .solver import NoConvergenceError, Orbit, State, find_periodic

__version__ = "0.1.0"

# The public surface.  Every other name lives in its submodule and is
# internal: it may change without notice.
__all__ = [
    "__version__",
    "load_problem", "parse_problem_text", "ProblemFileError", "ProblemSpec",
    "PeriodicCoeff", "parse_expression",
    "certify", "Certificate", "theorem_for",
    "find_periodic", "Orbit", "State", "NoConvergenceError",
]
