"""Numerical library for non-local total-variation energies.

Interaction laws, step functions and their simplifying operators, exact and
quadrature energies, log-sum minimum problems, and shape-factor lower bounds.

Each name below is imported from its defining module on first use (PEP 562),
so ``import bvgamma`` loads neither numpy nor any submodule.
"""

from importlib import import_module

_EXPORTS = {
    "laws": ("AdmissibilityReport", "AffineThetaLaw", "DyadicAffineLaw", "InteractionLaw",
             "ModelLaw", "PackagedDyadicLaw", "PiecewiseConstantLaw", "QuadraticHeadLaw",
             "ScaledLaw", "TabulatedLaw", "check_admissible", "phi_eps"),
    "stepfn": ("StepFunction", "gaps", "oscillation", "rearrange", "segment",
               "staircase_from_gaps", "total_variation", "truncate"),
    "energy": ("EnergyResult", "geometric_constant", "hostility", "lambda_quad",
               "lambda_step"),
    "minprob": ("MinProblem", "MinResult", "in_domain", "log_cost", "minimize", "power_cost",
                "telescopic_margin", "window_sums"),
    "bounds": ("BoundReport", "counterexample_table", "gamma_liminf_factor",
               "harmonic_number", "psi_bound", "theta_bound", "zeta_bound"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


class _Record:
    """A record: its repr names the class and each of its ``_fields``, and two
    instances of one class are equal when their fields are.  Mutable, so unhashable."""

    _fields = ()

    def _astuple(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class _Frozen(_Record):
    """A record that hashes its fields and refuses attribute assignment, so its
    ``__init__`` writes ``self.__dict__``."""

    def __hash__(self):
        return hash(self._astuple())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__


def __getattr__(name):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
