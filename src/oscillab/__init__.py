"""oscillab: numerical experiments on oscillation-norm growth under
measure-preserving bi-Lipschitz maps, Whitney covers, Carleson pull-backs,
and transport equations."""

__version__ = "0.1.0"
