"""oscillab: numerical experiments on oscillation-norm growth under
measure-preserving bi-Lipschitz maps, Whitney covers, Carleson pull-backs,
and transport equations."""

from .domain import (
    Ball,
    BallFamily,
    Box,
    DistanceField,
    Grid,
    GridFunction,
    PixelMask,
    ball_average,
    ball_family,
    ball_oscillation,
    distance_transform,
)
from .maps import (
    BiLipMap,
    VectorField,
    estimate_K,
    integrate_flow,
    make_linear_strain,
    make_shear,
)
from .oscillation import OscillationParams, compose, rho, seminorm

__all__ = [
    "Ball",
    "BallFamily",
    "Box",
    "BiLipMap",
    "DistanceField",
    "Grid",
    "GridFunction",
    "OscillationParams",
    "PixelMask",
    "VectorField",
    "ball_average",
    "ball_family",
    "ball_oscillation",
    "compose",
    "distance_transform",
    "estimate_K",
    "integrate_flow",
    "make_linear_strain",
    "make_shear",
    "rho",
    "seminorm",
]

__version__ = "0.1.0"
